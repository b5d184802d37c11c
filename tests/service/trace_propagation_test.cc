// Service-level trace propagation: one submission produces ONE span tree
// that covers everything that happened to it — admission wait, both cache
// probes, the degradation-ladder rung, and the engine operators under it —
// even though the submission crosses from the submitting thread to a pool
// thread (and, for morsel execution, fans out to workers).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gov/fault_injector.h"
#include "gov/governed_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace service {
namespace {

constexpr const char* kSumQuery =
    "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
    "CONFIDENCE 95%";

using testutil::FindSpan;

void ExpectAllClosed(const obs::SpanRecord& node) {
  EXPECT_FALSE(node.open) << "span still open: " << node.name;
  for (const auto& child : node.children) ExpectAllClosed(*child);
}

size_t CountSpans(const obs::SpanRecord& node) {
  size_t n = 1;
  for (const auto& child : node.children) n += CountSpans(*child);
  return n;
}

size_t CountNamed(const obs::SpanRecord& node, const std::string& name) {
  size_t n = node.name == name ? 1 : 0;
  for (const auto& child : node.children) n += CountNamed(*child, name);
  return n;
}

bool IsChildOf(const obs::SpanRecord& parent, const std::string& name) {
  for (const auto& child : parent.children) {
    if (child->name == name) return true;
  }
  return false;
}

bool HasAttrInSubtree(const obs::SpanRecord& node, const std::string& attr) {
  for (const auto& [key, value] : node.attrs) {
    if (key == attr) return true;
  }
  for (const auto& child : node.children) {
    if (HasAttrInSubtree(*child, attr)) return true;
  }
  return false;
}

class TracePropagationTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(60000, 11).value();
    was_enabled_ = obs::MetricsRegistry::Global().enabled();
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  void TearDown() override {
    obs::MetricsRegistry::Global().set_enabled(was_enabled_);
  }

  ServiceOptions Options() const {
    ServiceOptions o;
    o.gov.aqp.pilot_rate = 0.02;
    o.gov.aqp.block_size = 64;
    o.gov.aqp.min_table_rows = 1000;
    o.gov.aqp.max_rate = 0.8;
    o.gov.aqp.exec.num_threads = GetParam();  // {1, 4} morsel workers.
    o.gov.aqp.exec.parallel_min_rows = 1024;  // The 60k table uses morsels.
    o.synopsis_rows = 4000;
    o.synopsis_min_table_rows = 10000;
    return o;
  }

  Catalog catalog_;
  bool was_enabled_ = false;
};

TEST_P(TracePropagationTest, OneSpanTreeFromSubmitToMorsels) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  auto r = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryTrace& trace = r.value().profile.trace;
  const obs::SpanRecord& root = trace.root();

  // One tree, rooted at the submission itself.
  EXPECT_EQ(root.name, "submit");
  ExpectAllClosed(root);

  // The admission wait is a real measured span INSIDE the tree, with the
  // queue depth it saw, and it precedes everything else.
  ASSERT_GE(root.children.size(), 2u);
  const obs::SpanRecord& admission = *root.children.front();
  EXPECT_EQ(admission.name, "admission");
  ASSERT_EQ(admission.attrs.size(), 1u);
  EXPECT_EQ(admission.attrs[0].first, "queue_depth");

  // Both cache probes are siblings under the same root.
  const obs::SpanRecord* result_probe = FindSpan(root, "result-cache");
  ASSERT_NE(result_probe, nullptr);
  ASSERT_FALSE(result_probe->attrs.empty());
  EXPECT_EQ(result_probe->attrs[0].second, "false");  // Cold: a miss.
  EXPECT_NE(FindSpan(root, "synopsis-cache"), nullptr);

  // The ladder rung the answer came from, with the executor's stage spans
  // nested inside it...
  const obs::SpanRecord* rung = FindSpan(root, "rung-0");
  ASSERT_NE(rung, nullptr);
  const obs::SpanRecord* pilot = FindSpan(*rung, "pilot");
  const obs::SpanRecord* final_stage = FindSpan(*rung, "final");
  ASSERT_NE(pilot, nullptr);
  ASSERT_NE(final_stage, nullptr);

  // ...and the engine's operator spans nested inside the stages: the tree
  // reaches from the front door down to the morsel-executed plan. (The
  // aggregation itself happens in the estimator, so the engine plan under a
  // stage is scan -> project; the projects carry the morsel attribution of
  // the parallel run — present for 1 worker too, same code path.)
  const obs::SpanRecord* scan = FindSpan(*final_stage, "scan");
  ASSERT_NE(scan, nullptr);
  ASSERT_FALSE(scan->attrs.empty());
  EXPECT_EQ(scan->attrs[0].first, "table");
  EXPECT_EQ(scan->attrs[0].second, "lineitem");
  EXPECT_TRUE(HasAttrInSubtree(*final_stage, "parallel_morsels"));

  // Every span of the submission is in THIS tree (nothing went to a second
  // root): a sanity floor on the size of the tree.
  EXPECT_GE(CountSpans(root), 10u);
}

TEST_P(TracePropagationTest, CacheHitTraceContainsAdmissionAndProbeOnly) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());
  auto hit = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.value().profile.cache_source, "result-cache");

  const obs::SpanRecord& root = hit.value().profile.trace.root();
  EXPECT_EQ(root.name, "submit");
  ExpectAllClosed(root);
  EXPECT_NE(FindSpan(root, "admission"), nullptr);
  const obs::SpanRecord* probe = FindSpan(root, "result-cache");
  ASSERT_NE(probe, nullptr);
  ASSERT_FALSE(probe->attrs.empty());
  EXPECT_EQ(probe->attrs[0].second, "true");  // The probe hit.
  // Nothing executed: no ladder rung in the tree.
  EXPECT_EQ(FindSpan(root, "rung-0"), nullptr);
  EXPECT_EQ(FindSpan(root, "rung-1"), nullptr);
}

TEST_P(TracePropagationTest, DegradedAnswerTraceShowsTheRungTaken) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  Submission submission{kSumQuery};
  submission.deadline_ms = 0;  // Forces the ladder off rung 0.
  auto r = service.Execute(session, submission);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().profile.degradation_rung, 1);

  const obs::SpanRecord& root = r.value().profile.trace.root();
  EXPECT_EQ(root.name, "submit");
  ExpectAllClosed(root);
  // Rung 0 was attempted (its span exists) and rung 1 answered, all in the
  // same tree, with the offline executor's stages inside rung 1.
  EXPECT_NE(FindSpan(root, "rung-0"), nullptr);
  const obs::SpanRecord* rung1 = FindSpan(root, "rung-1");
  ASSERT_NE(rung1, nullptr);
  EXPECT_NE(FindSpan(*rung1, "estimate"), nullptr);
}

// The service parses and binds a submission once, at its root, and every
// rung reads that one prepared query: whichever rung answers, the tree holds
// exactly one parse span and one bind span, both children of the root.
TEST_P(TracePropagationTest, EachSubmissionIsParsedAndBoundOnce) {
  gov::ScopedFaultInjection quiet;
  auto expect_once = [](const Result<core::ApproxResult>& r, int rung) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().profile.degradation_rung, rung);
    const obs::SpanRecord& root = r.value().profile.trace.root();
    EXPECT_EQ(CountNamed(root, "parse"), 1u) << "rung " << rung;
    EXPECT_EQ(CountNamed(root, "bind"), 1u) << "rung " << rung;
    EXPECT_EQ(CountNamed(root, "parse+bind"), 0u) << "rung " << rung;
    EXPECT_TRUE(IsChildOf(root, "parse")) << "rung " << rung;
    EXPECT_TRUE(IsChildOf(root, "bind")) << "rung " << rung;
  };
  Submission expired{kSumQuery};
  expired.deadline_ms = 0;  // Forces the ladder off rung 0.
  {
    QueryService service(&catalog_, Options());
    auto session = service.OpenSession();
    expect_once(service.Execute(session, {kSumQuery}), 0);
    // Rung 1, answered from the shared synopsis (built by the first run,
    // cached for the second).
    expect_once(service.Execute(session, expired), 1);
    expect_once(service.Execute(session, expired), 1);

    // A result-cache hit is parsed (its key comes from the parse) but
    // never bound.
    auto hit = service.Execute(session, {kSumQuery});
    ASSERT_TRUE(hit.ok());
    ASSERT_EQ(hit.value().profile.cache_source, "result-cache");
    const obs::SpanRecord& root = hit.value().profile.trace.root();
    EXPECT_EQ(CountNamed(root, "parse"), 1u);
    EXPECT_EQ(CountNamed(root, "bind"), 0u);
  }
  {
    // No table is large enough for a synopsis, so rung 1 has nothing to
    // answer from and rung 2 (online aggregation) answers.
    ServiceOptions no_synopsis = Options();
    no_synopsis.synopsis_min_table_rows = 1ull << 40;
    QueryService service(&catalog_, no_synopsis);
    auto session = service.OpenSession();
    auto ola = service.Execute(session, expired);
    expect_once(ola, 2);
    const obs::SpanRecord* rung2 =
        FindSpan(ola.value().profile.trace.root(), "rung-2");
    ASSERT_NE(rung2, nullptr);
    EXPECT_TRUE(HasAttrInSubtree(*rung2, "steps"));
    EXPECT_TRUE(HasAttrInSubtree(*rung2, "rows_seen"));
  }
}

// A standalone GovernedExecutor::Execute owns its trace the same way: one
// parse and one bind under the root, and the answering rung's span beneath.
TEST_P(TracePropagationTest, StandaloneGovernedRunTracesParseBindAndRung) {
  gov::ScopedFaultInjection quiet;
  gov::GovernedOptions opts = Options().gov;
  opts.deadline_ms = 0;  // No samples either: rung 2 answers.
  gov::GovernedExecutor exec(&catalog_, /*samples=*/nullptr, opts);
  auto r = exec.Execute(kSumQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().profile.degradation_rung, 2);
  const obs::SpanRecord& root = r.value().profile.trace.root();
  EXPECT_EQ(CountNamed(root, "parse"), 1u);
  EXPECT_EQ(CountNamed(root, "bind"), 1u);
  EXPECT_TRUE(IsChildOf(root, "parse"));
  EXPECT_TRUE(IsChildOf(root, "bind"));
  EXPECT_TRUE(IsChildOf(root, "rung-0"));
  const obs::SpanRecord* rung2 = FindSpan(root, "rung-2");
  ASSERT_NE(rung2, nullptr);
  EXPECT_TRUE(HasAttrInSubtree(*rung2, "steps"));
  EXPECT_TRUE(HasAttrInSubtree(*rung2, "rows_seen"));
}

TEST_P(TracePropagationTest, ObservabilityOffMeansNoTraceAndNoSpans) {
  gov::ScopedFaultInjection quiet;
  obs::MetricsRegistry::Global().set_enabled(false);
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();
  auto r = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The profile's trace stays the default empty tree: the untraced path
  // allocates nothing.
  EXPECT_TRUE(r.value().profile.trace.root().children.empty());
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, TracePropagationTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace service
}  // namespace aqp
