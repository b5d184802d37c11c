#include "core/rewriter.h"

#include <functional>

#include "common/check.h"
#include "obs/metrics.h"

namespace aqp {
namespace core {
namespace {

// Rebuilds `plan` bottom-up: each node is re-made over its rebuilt children,
// then replaced by `fn(node)`.
PlanPtr MapPlan(const PlanPtr& plan,
                const std::function<PlanPtr(const PlanPtr&)>& fn) {
  std::vector<PlanPtr> in;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    in.push_back(MapPlan(plan->child(i), fn));
  }
  PlanPtr node;
  switch (plan->kind()) {
    case PlanKind::kScan:
      node = plan;
      break;
    case PlanKind::kFilter:
      node = PlanNode::Filter(in[0], plan->predicate());
      break;
    case PlanKind::kProject:
      node = PlanNode::Project(in[0], plan->exprs(), plan->names());
      break;
    case PlanKind::kJoin:
      node = PlanNode::Join(in[0], in[1], plan->join_type(), plan->left_keys(),
                            plan->right_keys());
      break;
    case PlanKind::kAggregate:
      node = PlanNode::Aggregate(in[0], plan->group_exprs(),
                                 plan->group_names(), plan->aggs());
      break;
    case PlanKind::kSort:
      node = PlanNode::Sort(in[0], plan->sort_keys());
      break;
    case PlanKind::kLimit:
      node = PlanNode::Limit(in[0], plan->limit());
      break;
    case PlanKind::kUnionAll:
      node = PlanNode::UnionAll(std::move(in));
      break;
  }
  AQP_CHECK(node != nullptr) << "unreachable plan kind";
  return fn(node);
}

void Walk(const PlanPtr& plan,
          const std::function<void(const PlanNode&)>& visit) {
  visit(*plan);
  for (size_t i = 0; i < plan->num_children(); ++i) {
    Walk(plan->child(i), visit);
  }
}

}  // namespace

PlanPtr StripSamples(const PlanPtr& plan) {
  if (obs::Enabled()) {
    static obs::Counter* strips = obs::MetricsRegistry::Global().GetCounter(
        "aqp_rewrites_sampler_stripped_total");
    strips->Increment();
  }
  return MapPlan(plan, [](const PlanPtr& node) {
    return node->kind() == PlanKind::kScan ? PlanNode::Scan(node->table_name())
                                           : node;
  });
}

std::vector<std::string> ScannedTables(const PlanPtr& plan) {
  std::vector<std::string> names;
  Walk(plan, [&](const PlanNode& node) {
    if (node.kind() == PlanKind::kScan) names.push_back(node.table_name());
  });
  return names;
}

Result<StagePlan> BuildStagePlan(const PlanPtr& plan,
                                 const std::string& table) {
  const PlanNode* agg = plan.get();
  while (agg->kind() != PlanKind::kAggregate) {
    if (agg->num_children() != 1) {
      return Status::InvalidArgument("plan has no aggregation to sample");
    }
    agg = agg->child().get();
  }
  bool found = false;
  PlanPtr input =
      MapPlan(StripSamples(agg->child()), [&](const PlanPtr& node) {
        if (node->kind() != PlanKind::kProject ||
            node->child()->kind() != PlanKind::kScan ||
            node->child()->table_name() != table) {
          return node;
        }
        found = true;
        std::vector<ExprPtr> exprs = node->exprs();
        std::vector<std::string> names = node->names();
        for (const char* design : {kUnitColumn, kWeightColumn}) {
          exprs.push_back(Col(design));
          names.push_back(design);
        }
        return PlanNode::Project(node->child(), std::move(exprs),
                                 std::move(names));
      });
  if (!found) {
    return Status::InvalidArgument("plan never scans table " + table +
                                   " through a projection");
  }

  StagePlan stage;
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t g = 0; g < agg->group_exprs().size(); ++g) {
    names.push_back("__g" + std::to_string(g));
    exprs.push_back(agg->group_exprs()[g]);
    stage.group_exprs.push_back(Col(names.back()));
  }
  for (size_t a = 0; a < agg->aggs().size(); ++a) {
    const AggSpec& spec = agg->aggs()[a];
    ExprPtr arg;
    if (spec.arg != nullptr) {
      names.push_back("__arg" + std::to_string(a));
      exprs.push_back(spec.arg);
      arg = Col(names.back());
    }
    stage.aggs.push_back({spec.kind, std::move(arg), spec.alias});
  }
  for (const char* design : {kUnitColumn, kWeightColumn}) {
    exprs.push_back(Col(design));
    names.push_back(design);
  }
  stage.plan = PlanNode::Project(std::move(input), std::move(exprs),
                                 std::move(names));
  return stage;
}

}  // namespace core
}  // namespace aqp
