#include "engine/executor.h"

#include <algorithm>
#include <functional>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/str_util.h"
#include "engine/extent_scan.h"
#include "expr/eval.h"
#include "expr/vector_eval.h"
#include "gov/fault_injector.h"
#include "obs/metrics.h"

namespace aqp {
namespace {

using TablePtr = std::shared_ptr<const Table>;

// Compares slot i of column a against slot j of column b for ordering;
// NULLs sort first. Columns must share a type.
int CompareForSort(const Column& a, size_t i, const Column& b, size_t j) {
  bool an = a.IsNull(i);
  bool bn = b.IsNull(j);
  if (an || bn) return (an ? 0 : 1) - (bn ? 0 : 1);
  switch (a.type()) {
    case DataType::kInt64: {
      int64_t x = a.Int64At(i);
      int64_t y = b.Int64At(j);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = a.DoubleAt(i);
      double y = b.DoubleAt(j);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString: {
      int c = a.StringAt(i).compare(b.StringAt(j));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kBool:
      return (a.BoolAt(i) ? 1 : 0) - (b.BoolAt(j) ? 1 : 0);
  }
  return 0;
}

// Bundles the per-query execution environment threaded through every
// operator: where tables come from, where counters go, and the parallelism
// knobs. Spans are created only on the coordinator thread (QueryTrace is not
// thread-safe); workers never touch `trace`.
struct ExecContext {
  const Catalog& catalog;
  ExecStats* stats;
  obs::QueryTrace* trace;
  const ExecOptions& options;

  // Where parallel regions report their morsel/steal counters (null when the
  // caller did not ask for stats).
  ParallelRunStats* run_stats() const {
    return stats != nullptr ? &stats->parallel : nullptr;
  }

  // Cancellation forwarded into every ParallelFor so in-flight morsels stop
  // at their next boundary, not just the next operator.
  ThreadPool::ParallelForOptions pf_options() const {
    return ThreadPool::ParallelForOptions{options.cancel};
  }
};

Result<TablePtr> Exec(const PlanPtr& plan, ExecContext& ctx);

// A late-materialized operator batch: rows of `base` viewed through an
// optional selection vector (ascending base-row indices; null means "all
// rows") and a column remap (view column i is base column col_idx[i], named
// names[i]). Scan and filter produce views without copying a single cell;
// the first table-valued operator (aggregate, join, sort, ...) — or the plan
// root — gathers once. Selections always index BASE rows, so predicate
// kernels run over contiguous column spans regardless of how many filters
// stacked up.
struct BatchView {
  TablePtr base;
  std::vector<size_t> col_idx;
  std::vector<std::string> names;
  std::shared_ptr<const std::vector<uint32_t>> sel;
  size_t num_rows = 0;
};

Result<BatchView> ExecBatch(const PlanPtr& plan, ExecContext& ctx);

// Materializes `t` behind a shared_ptr, charging the query's MemoryTracker
// (when one is bound) for the table's footprint until the last reference
// dies. Operator OUTPUTS go through here; catalog base tables do not (they
// are shared storage, not query-owned memory). The table itself is not
// const, so Execute may move a root it solely owns out to the caller.
Result<TablePtr> TrackTable(Table&& t, ExecContext& ctx,
                            std::string_view what) {
  MemoryTracker* memory = ctx.options.memory;
  if (memory == nullptr) {
    return TablePtr(std::make_shared<Table>(std::move(t)));
  }
  auto owned = std::make_unique<Table>(std::move(t));
  const uint64_t bytes = owned->ApproxBytes();
  AQP_RETURN_IF_ERROR(memory->TryCharge(bytes, what));
  return TablePtr(owned.release(), [memory, bytes](const Table* p) {
    delete p;
    memory->Release(bytes);
  });
}

// Gathers `keep` out of `table`, in parallel when the morsel path is active
// for this input size (the parallel gather is column-wise and produces the
// identical table for every thread count).
Table GatherRows(const Table& table, const std::vector<uint32_t>& keep,
                 bool use_morsels, ExecContext& ctx) {
  if (!use_morsels) return table.Take(keep);
  return table.Take(keep, ctx.options.ResolvedThreads(), ctx.run_stats());
}

// Selection vectors are query-owned memory too: charge them like operator
// outputs, released when the last view referencing them dies.
Result<std::shared_ptr<const std::vector<uint32_t>>> TrackSel(
    std::vector<uint32_t>&& sel, ExecContext& ctx, std::string_view what) {
  MemoryTracker* memory = ctx.options.memory;
  if (memory == nullptr) {
    return std::make_shared<const std::vector<uint32_t>>(std::move(sel));
  }
  auto owned = std::make_unique<const std::vector<uint32_t>>(std::move(sel));
  const uint64_t bytes = owned->capacity() * sizeof(uint32_t);
  AQP_RETURN_IF_ERROR(memory->TryCharge(bytes, what));
  return std::shared_ptr<const std::vector<uint32_t>>(
      owned.release(), [memory, bytes](const std::vector<uint32_t>* p) {
        delete p;
        memory->Release(bytes);
      });
}

// Wraps a table as the trivial view over itself.
BatchView IdentityView(TablePtr t) {
  BatchView v;
  v.base = std::move(t);
  const size_t n = v.base->num_columns();
  v.col_idx.resize(n);
  v.names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.col_idx[i] = i;
    v.names.push_back(v.base->schema().field(i).name);
  }
  v.num_rows = v.base->num_rows();
  return v;
}

bool ViewIsIdentity(const BatchView& v) {
  if (v.sel != nullptr) return false;
  if (v.col_idx.size() != v.base->num_columns()) return false;
  for (size_t i = 0; i < v.col_idx.size(); ++i) {
    if (v.col_idx[i] != i) return false;
    if (v.names[i] != v.base->schema().field(i).name) return false;
  }
  return true;
}

// The schema a view exposes: its names over the base columns' types.
Schema ViewSchema(const BatchView& v) {
  Schema schema;
  for (size_t i = 0; i < v.col_idx.size(); ++i) {
    schema.AddField({v.names[i], v.base->column(v.col_idx[i]).type()});
  }
  return schema;
}

// Builds `num_cols` output columns of `rows` rows each with `gather(i)`,
// column-parallel through the pool whenever the morsel path is active for
// this row count — single-column outputs included, so morsel attribution
// (run stats, trace attrs) reflects the gather uniformly. Columns are
// independent, so the result is identical for every thread count.
Result<std::vector<Column>> GatherColumns(
    size_t num_cols, size_t rows, ExecContext& ctx,
    const std::function<Column(size_t)>& gather) {
  std::vector<Column> columns;
  if (!ctx.options.UseMorsels(rows)) {
    columns.reserve(num_cols);
    for (size_t i = 0; i < num_cols; ++i) columns.push_back(gather(i));
    return columns;
  }
  columns.assign(num_cols, Column(DataType::kInt64));
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      num_cols, /*morsel_items=*/1, ctx.options.ResolvedThreads(),
      ctx.pf_options(), [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) columns[i] = gather(i);
      });
  if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
  // A cancellation mid-gather leaves dummy columns behind; bail before
  // Table::Make sees mismatched lengths.
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  return columns;
}

// Collapses a view into a real table: the one gather of the batch pipeline.
// Identity views hand back the base table without copying (matching the
// scalar scan's pass-through of catalog tables).
Result<TablePtr> MaterializeView(const BatchView& v, ExecContext& ctx,
                                 std::string_view what) {
  if (ViewIsIdentity(v)) return v.base;
  const Table& base = *v.base;
  std::vector<Column> columns;
  if (v.sel == nullptr) {
    columns.reserve(v.col_idx.size());
    for (size_t idx : v.col_idx) columns.push_back(base.column(idx));
  } else {
    AQP_ASSIGN_OR_RETURN(
        columns, GatherColumns(v.col_idx.size(), v.sel->size(), ctx,
                               [&](size_t i) {
                                 return base.column(v.col_idx[i])
                                     .TakeBatch(*v.sel);
                               }));
  }
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(ViewSchema(v), std::move(columns)));
  return TrackTable(std::move(out), ctx, what);
}

// How operators obtain a child as a view: the vectorized path runs it as a
// batch view; the scalar path executes it and wraps the resulting table as
// the identity view over itself.
Result<BatchView> ExecInputView(const PlanPtr& plan, ExecContext& ctx) {
  if (ctx.options.ResolvedPath() == ExecPath::kVectorized) {
    return ExecBatch(plan, ctx);
  }
  AQP_ASSIGN_OR_RETURN(TablePtr t, Exec(plan, ctx));
  return IdentityView(std::move(t));
}

// How table-valued operators (aggregate/sort/limit/union) obtain a child
// table: the child's view, gathered at this boundary.
Result<TablePtr> ExecInput(const PlanPtr& plan, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(BatchView view, ExecInputView(plan, ctx));
  return MaterializeView(view, ctx, "batch materialize");
}

// Draws the kept-row set for a sampled scan. Shared verbatim by the scalar
// and batch scans, so both paths keep exactly the same rows for a given
// (seed, morsel_rows) regardless of thread count.
Result<std::vector<uint32_t>> DrawSampleKeep(const Table& table,
                                             const SampleSpec& spec,
                                             bool use_morsels,
                                             ExecContext& ctx,
                                             uint64_t* blocks_read_out) {
  const size_t n = table.num_rows();
  std::vector<uint32_t> keep;
  uint64_t blocks_read = 0;
  if (spec.method == SampleSpec::Method::kBernoulliRow) {
    // Row-level Bernoulli still scans every block — the system-efficiency
    // gap the paper highlights.
    blocks_read = table.NumBlocks(spec.block_size);
    if (use_morsels) {
      // Per-morsel RNG: morsel m draws from stream m of the query seed, so
      // the kept set depends only on (seed, morsel_rows) — never on which
      // worker ran the morsel or how many threads participated.
      const size_t morsel_rows = ctx.options.morsel_rows;
      const size_t num_morsels = (n + morsel_rows - 1) / morsel_rows;
      std::vector<std::vector<uint32_t>> local(num_morsels);
      ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
          n, morsel_rows, ctx.options.ResolvedThreads(), ctx.pf_options(),
          [&](size_t, size_t m, size_t begin, size_t end) {
            Pcg32 rng = MorselRng(spec.seed, m);
            for (size_t i = begin; i < end; ++i) {
              if (rng.Bernoulli(spec.rate)) {
                local[m].push_back(static_cast<uint32_t>(i));
              }
            }
          });
      // A cancellation that landed mid-draw leaves `local` incomplete; the
      // partial kept set must never masquerade as a valid sample.
      AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
      size_t total = 0;
      for (const std::vector<uint32_t>& v : local) total += v.size();
      keep.reserve(total);
      for (const std::vector<uint32_t>& v : local) {
        keep.insert(keep.end(), v.begin(), v.end());
      }
      if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
    } else {
      // Small input: one morsel, one stream — MorselRng(seed, 0) is the
      // plain Pcg32(seed) the classic path always used.
      Pcg32 rng = MorselRng(spec.seed, 0);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(spec.rate)) keep.push_back(static_cast<uint32_t>(i));
      }
    }
  } else {
    // Block-level: sample whole blocks, skip the rest entirely. One
    // Bernoulli draw per block from a single stream is cheap and trivially
    // thread-count independent; only the gather below parallelizes.
    Pcg32 rng(spec.seed);
    size_t num_blocks = table.NumBlocks(spec.block_size);
    for (size_t b = 0; b < num_blocks; ++b) {
      if (!rng.Bernoulli(spec.rate)) continue;
      ++blocks_read;
      auto [first, last] = table.BlockRange(b, spec.block_size);
      for (size_t i = first; i < last; ++i) {
        keep.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  *blocks_read_out = blocks_read;
  return keep;
}

ExtentScanOptions MakeExtentScanOptions(size_t num_rows, ExecContext& ctx) {
  ExtentScanOptions o;
  o.num_threads = ctx.options.UseMorsels(num_rows)
                      ? ctx.options.ResolvedThreads()
                      : 1;
  o.cancel = ctx.options.cancel;
  o.memory = ctx.options.memory;
  o.run_stats = ctx.run_stats();
  return o;
}

void MergeExtentStats(const ExtentScanStats& es, ExecContext& ctx) {
  if (ctx.stats == nullptr) return;
  ctx.stats->extents_total += es.extents_total;
  ctx.stats->extents_pruned += es.extents_pruned;
}

// Resolves a scan's base table: in-memory tables come straight from the
// catalog (shared storage, uncharged); extent-backed tables materialize here
// as a governed parallel read — charged like any operator output, so a
// beyond-budget full scan is refused instead of silently swapping.
Result<TablePtr> ScanBaseTable(const PlanNode& node, ExecContext& ctx) {
  if (!ctx.catalog.IsExtentBacked(node.table_name())) {
    return ctx.catalog.Get(node.table_name());
  }
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const extent::ExtentReader> reader,
                       ctx.catalog.GetExtentReader(node.table_name()));
  ExtentScanStats es;
  AQP_ASSIGN_OR_RETURN(
      Table t, ReadAllExtents(*reader,
                              MakeExtentScanOptions(reader->num_rows(), ctx),
                              &es));
  MergeExtentStats(es, ctx);
  return TrackTable(std::move(t), ctx, "extent scan output");
}

// Fused filter+scan over an extent-backed base: prune extents with the
// predicate's conjuncts, decode + filter the survivors morsel-parallel, and
// emit only matching rows (engine/extent_scan.h). Applies when the filter
// sits directly on an unsampled scan — the shape every pushed-down WHERE
// clause takes.
Result<TablePtr> ExecExtentFilterScan(const PlanNode& filter_node,
                                      const PlanNode& scan_node,
                                      ExecContext& ctx) {
  AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail("engine.scan"));
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const extent::ExtentReader> reader,
                       ctx.catalog.GetExtentReader(scan_node.table_name()));
  ExtentScanStats es;
  AQP_ASSIGN_OR_RETURN(
      Table t, FusedExtentFilterScan(
                   *reader, *filter_node.predicate(),
                   MakeExtentScanOptions(reader->num_rows(), ctx), &es));
  MergeExtentStats(es, ctx);
  if (ctx.stats != nullptr) {
    // Pruned extents are I/O the query never did; count only decoded rows
    // and the blocks of extents actually read.
    ctx.stats->rows_scanned += es.rows_read;
    ctx.stats->blocks_read +=
        (es.rows_read + scan_node.sample().block_size - 1) /
        scan_node.sample().block_size;
  }
  return TrackTable(std::move(t), ctx, "filter output");
}

// True when a filter node directly over `child` should take the fused
// extent path.
bool UseFusedExtentFilter(const PlanNode& filter_node, ExecContext& ctx) {
  const PlanPtr& child = filter_node.child();
  return child->kind() == PlanKind::kScan && !child->sample().is_sampled() &&
         ctx.catalog.IsExtentBacked(child->table_name());
}

Result<TablePtr> ExecScan(const PlanNode& node, ExecContext& ctx) {
  AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail("engine.scan"));
  AQP_ASSIGN_OR_RETURN(TablePtr table, ScanBaseTable(node, ctx));
  const SampleSpec& spec = node.sample();
  if (!spec.is_sampled()) {
    if (ctx.stats != nullptr) {
      ctx.stats->rows_scanned += table->num_rows();
      ctx.stats->blocks_read += table->NumBlocks(spec.block_size);
    }
    return table;
  }
  const bool use_morsels = ctx.options.UseMorsels(table->num_rows());
  uint64_t blocks_read = 0;
  AQP_ASSIGN_OR_RETURN(
      std::vector<uint32_t> keep,
      DrawSampleKeep(*table, spec, use_morsels, ctx, &blocks_read));
  if (ctx.stats != nullptr) {
    ctx.stats->rows_scanned += keep.size();
    ctx.stats->blocks_read += blocks_read;
  }
  return TrackTable(GatherRows(*table, keep, use_morsels, ctx), ctx,
                    "scan output");
}

Result<TablePtr> ExecFilter(const PlanNode& node, ExecContext& ctx) {
  if (UseFusedExtentFilter(node, ctx)) {
    return ExecExtentFilterScan(node, *node.child(), ctx);
  }
  AQP_ASSIGN_OR_RETURN(TablePtr input, Exec(node.child(), ctx));
  const bool use_morsels = ctx.options.UseMorsels(input->num_rows());
  std::vector<uint32_t> selected;
  if (use_morsels) {
    AQP_ASSIGN_OR_RETURN(
        selected, EvalPredicateMorsel(*node.predicate(), *input,
                                      ctx.options.morsel_rows,
                                      ctx.options.ResolvedThreads(),
                                      ctx.run_stats(), ctx.options.cancel));
  } else {
    AQP_ASSIGN_OR_RETURN(selected, EvalPredicate(*node.predicate(), *input));
  }
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  return TrackTable(GatherRows(*input, selected, use_morsels, ctx), ctx,
                    "filter output");
}

Result<TablePtr> ExecProject(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr input, Exec(node.child(), ctx));
  const size_t num_exprs = node.exprs().size();
  if (ctx.options.UseMorsels(input->num_rows()) && num_exprs > 1) {
    // Expression-parallel: each output column evaluates independently.
    std::vector<Result<Column>> results(
        num_exprs, Result<Column>(Column(DataType::kInt64)));
    ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
        num_exprs, /*morsel_items=*/1, ctx.options.ResolvedThreads(),
        ctx.pf_options(), [&](size_t, size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            results[i] = Eval(*node.exprs()[i], *input);
          }
        });
    if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
    // Skipped expressions under cancellation hold the dummy column; bail
    // before reading them.
    AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
    Schema schema;
    std::vector<Column> columns;
    columns.reserve(num_exprs);
    for (size_t i = 0; i < num_exprs; ++i) {
      AQP_ASSIGN_OR_RETURN(Column c, std::move(results[i]));
      schema.AddField({node.names()[i], c.type()});
      columns.push_back(std::move(c));
    }
    AQP_ASSIGN_OR_RETURN(Table out,
                         Table::Make(std::move(schema), std::move(columns)));
    return TrackTable(std::move(out), ctx, "project output");
  }
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < num_exprs; ++i) {
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*node.exprs()[i], *input));
    schema.AddField({node.names()[i], c.type()});
    columns.push_back(std::move(c));
  }
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(std::move(schema), std::move(columns)));
  return TrackTable(std::move(out), ctx, "project output");
}

// Morsel size for an n-row loop (morsel_rows = 0 means one morsel).
size_t MorselRows(size_t n, const ExecContext& ctx) {
  const size_t rows = ctx.options.morsel_rows > 0 ? ctx.options.morsel_rows : n;
  return std::max<size_t>(rows, 1);
}

// Runs `body` over [0, n) in MorselRows(n) morsels: through the pool when
// the morsel path is active for n rows, else inline on the caller. Either
// way cancellation is polled before every morsel.
void ForEachMorsel(size_t n, ExecContext& ctx,
                   const ThreadPool::MorselFn& body) {
  const bool use_morsels = ctx.options.UseMorsels(n);
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      n, MorselRows(n, ctx), use_morsels ? ctx.options.ResolvedThreads() : 1,
      ctx.pf_options(), body);
  if (use_morsels && ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
}

// One side of an equi-join: the key columns of a view, addressed by view
// row (the view's selection maps view rows to base rows).
struct JoinSide {
  std::vector<const Column*> keys;
  const uint32_t* sel = nullptr;  // Null = identity.

  uint32_t BaseRow(size_t i) const {
    return sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
  }

  // Hashes view rows [begin, end) one key column at a time with the hash
  // group-by's HashCombine recipe, flagging rows with a NULL key (NULL keys
  // never match).
  void Hash(size_t begin, size_t end, uint64_t* hashes,
            uint8_t* has_null) const {
    std::fill(hashes, hashes + (end - begin), 0x9e3779b97f4a7c15ULL);
    std::fill(has_null, has_null + (end - begin), uint8_t{0});
    for (const Column* col : keys) {
      for (size_t i = begin; i < end; ++i) {
        const uint32_t row = BaseRow(i);
        hashes[i - begin] = HashCombine(hashes[i - begin], col->HashAt(row));
        if (col->IsNull(row)) has_null[i - begin] = 1;
      }
    }
  }
};

// Hash join, build side right, probe side left; both inputs arrive as views
// (the scalar path's tables as identity views). The build table is flat:
// power-of-two bucket heads, `next` links and stored hashes, filled in
// reverse so every chain lists build rows in increasing order. The probe is
// morsel-parallel; each morsel records (left, right) base-row pairs, and the
// morsels are concatenated in order, so the output holds probe rows in order
// and, within one, its matches in build-row order — for every thread count.
// Each output column is then gathered once through those base rows.
Result<TablePtr> ExecJoin(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(BatchView left, ExecInputView(node.child(0), ctx));
  AQP_ASSIGN_OR_RETURN(BatchView right, ExecInputView(node.child(1), ctx));
  const Schema left_schema = ViewSchema(left);
  const Schema right_schema = ViewSchema(right);
  JoinSide probe{{}, left.sel != nullptr ? left.sel->data() : nullptr};
  JoinSide build{{}, right.sel != nullptr ? right.sel->data() : nullptr};
  for (const std::string& k : node.left_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, left_schema.FieldIndex(k));
    probe.keys.push_back(&left.base->column(left.col_idx[idx]));
  }
  for (const std::string& k : node.right_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, right_schema.FieldIndex(k));
    build.keys.push_back(&right.base->column(right.col_idx[idx]));
  }
  for (size_t i = 0; i < probe.keys.size(); ++i) {
    if (probe.keys[i]->type() != build.keys[i]->type()) {
      return Status::InvalidArgument("join key type mismatch: " +
                                     node.left_keys()[i] + " vs " +
                                     node.right_keys()[i]);
    }
  }

  constexpr uint32_t kNoRow = Column::kNoRow;
  const bool left_outer = node.join_type() == JoinType::kLeftOuter;
  const size_t num_probe = left.num_rows;
  struct MorselMatches {
    std::vector<uint32_t> left;   // Probe base rows.
    std::vector<uint32_t> right;  // Build base rows; kNoRow = LEFT JOIN miss.
  };
  const size_t probe_morsel_rows = MorselRows(num_probe, ctx);
  std::vector<MorselMatches> matches((num_probe + probe_morsel_rows - 1) /
                                     probe_morsel_rows);
  {
    // Build: hash morsel-parallel, then link in reverse, polling every
    // morsel of rows.
    const size_t num_build = right.num_rows;
    size_t num_buckets = 1;
    while (num_buckets < num_build) num_buckets <<= 1;
    const uint64_t mask = num_buckets - 1;
    std::vector<uint32_t> heads(num_buckets, kNoRow);
    std::vector<uint32_t> next(num_build);
    std::vector<uint64_t> hashes(num_build);
    std::vector<uint8_t> build_null(num_build);
    ForEachMorsel(num_build, ctx,
                  [&](size_t, size_t, size_t begin, size_t end) {
                    build.Hash(begin, end, &hashes[begin], &build_null[begin]);
                  });
    const size_t build_morsel_rows = MorselRows(num_build, ctx);
    for (size_t end = num_build; end > 0;) {
      AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
      const size_t begin =
          end > build_morsel_rows ? end - build_morsel_rows : 0;
      for (size_t j = end; j-- > begin;) {
        if (build_null[j] != 0) continue;
        uint32_t& head = heads[hashes[j] & mask];
        next[j] = head;
        head = static_cast<uint32_t>(j);
      }
      end = begin;
    }

    // Probe. A single INT64 key compares raw values.
    const bool int64_key = probe.keys.size() == 1 &&
                           probe.keys[0]->type() == DataType::kInt64;
    auto keys_equal = [&](uint32_t lrow, uint32_t rrow) {
      if (int64_key) {
        return probe.keys[0]->Int64At(lrow) == build.keys[0]->Int64At(rrow);
      }
      for (size_t k = 0; k < probe.keys.size(); ++k) {
        if (!probe.keys[k]->SlotEquals(lrow, *build.keys[k], rrow)) {
          return false;
        }
      }
      return true;
    };
    ForEachMorsel(num_probe, ctx, [&](size_t, size_t m, size_t begin,
                                      size_t end) {
      std::vector<uint64_t> h(end - begin);
      std::vector<uint8_t> has_null(end - begin);
      probe.Hash(begin, end, h.data(), has_null.data());
      MorselMatches& out = matches[m];
      out.left.reserve(end - begin);
      out.right.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        const uint32_t lrow = probe.BaseRow(i);
        bool matched = false;
        if (has_null[i - begin] == 0) {
          const uint64_t hash = h[i - begin];
          for (uint32_t j = heads[hash & mask]; j != kNoRow; j = next[j]) {
            const uint32_t rrow = build.BaseRow(j);
            if (hashes[j] != hash || !keys_equal(lrow, rrow)) continue;
            out.left.push_back(lrow);
            out.right.push_back(rrow);
            matched = true;
          }
        }
        if (!matched && left_outer) {
          out.left.push_back(lrow);
          out.right.push_back(kNoRow);
        }
      }
    });
    AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  }

  // Concatenate the morsels' matches in morsel order.
  size_t emitted = 0;
  for (const MorselMatches& mm : matches) emitted += mm.left.size();
  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> right_rows;
  left_rows.reserve(emitted);
  right_rows.reserve(emitted);
  for (MorselMatches& mm : matches) {
    left_rows.insert(left_rows.end(), mm.left.begin(), mm.left.end());
    right_rows.insert(right_rows.end(), mm.right.begin(), mm.right.end());
    mm = {};
  }

  // Gather: all left columns, then all right columns.
  const size_t num_left_cols = left.col_idx.size();
  AQP_ASSIGN_OR_RETURN(
      std::vector<Column> columns,
      GatherColumns(
          num_left_cols + right.col_idx.size(), emitted, ctx,
          [&](size_t c) {
            if (c < num_left_cols) {
              return left.base->column(left.col_idx[c]).TakeBatch(left_rows);
            }
            const Column& src =
                right.base->column(right.col_idx[c - num_left_cols]);
            return left_outer ? src.TakeBatchOrNull(right_rows)
                              : src.TakeBatch(right_rows);
          }));
  Schema schema = left_schema;
  for (const Field& f : right_schema.fields()) schema.AddField(f);
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(std::move(schema), std::move(columns)));
  if (ctx.stats != nullptr) ctx.stats->rows_joined += emitted;
  return TrackTable(std::move(out), ctx, "join output");
}

Result<TablePtr> ExecAggregate(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr input, ExecInput(node.child(), ctx));
  AggregateOptions agg_options;
  agg_options.exec = &ctx.options;
  agg_options.run_stats = ctx.run_stats();
  AQP_ASSIGN_OR_RETURN(
      Table out, GroupByAggregate(*input, node.group_exprs(),
                                  node.group_names(), node.aggs(),
                                  agg_options));
  return TrackTable(std::move(out), ctx, "aggregate output");
}

Result<TablePtr> ExecSort(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr input, ExecInput(node.child(), ctx));
  std::vector<size_t> key_cols;
  for (const SortKey& k : node.sort_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, input->ColumnIndex(k.column));
    key_cols.push_back(idx);
  }
  std::vector<uint32_t> order(input->num_rows());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      const Column& col = input->column(key_cols[k]);
      int cmp = CompareForSort(col, a, col, b);
      if (cmp != 0) {
        return node.sort_keys()[k].ascending ? cmp < 0 : cmp > 0;
      }
    }
    return false;
  });
  return TrackTable(
      GatherRows(*input, order, ctx.options.UseMorsels(order.size()), ctx),
      ctx, "sort output");
}

Result<TablePtr> ExecLimit(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr input, ExecInput(node.child(), ctx));
  return TrackTable(input->Slice(0, node.limit()), ctx, "limit output");
}

Result<TablePtr> ExecUnionAll(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr first, ExecInput(node.child(0), ctx));
  Table out = *first;  // Copy, then append the rest.
  for (size_t i = 1; i < node.num_children(); ++i) {
    AQP_ASSIGN_OR_RETURN(TablePtr next, ExecInput(node.child(i), ctx));
    AQP_RETURN_IF_ERROR(out.Append(*next));
  }
  return TrackTable(std::move(out), ctx, "union output");
}

const char* OperatorName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "scan";
    case PlanKind::kFilter:
      return "filter";
    case PlanKind::kProject:
      return "project";
    case PlanKind::kJoin:
      return "join";
    case PlanKind::kAggregate:
      return "aggregate";
    case PlanKind::kSort:
      return "sort";
    case PlanKind::kLimit:
      return "limit";
    case PlanKind::kUnionAll:
      return "union_all";
  }
  return "unknown";
}

Result<TablePtr> ExecDispatch(const PlanPtr& plan, ExecContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecScan(*plan, ctx);
    case PlanKind::kFilter:
      return ExecFilter(*plan, ctx);
    case PlanKind::kProject:
      return ExecProject(*plan, ctx);
    case PlanKind::kJoin:
      return ExecJoin(*plan, ctx);
    case PlanKind::kAggregate:
      return ExecAggregate(*plan, ctx);
    case PlanKind::kSort:
      return ExecSort(*plan, ctx);
    case PlanKind::kLimit:
      return ExecLimit(*plan, ctx);
    case PlanKind::kUnionAll:
      return ExecUnionAll(*plan, ctx);
  }
  return Status::Internal("unreachable plan kind");
}

Result<TablePtr> Exec(const PlanPtr& plan, ExecContext& ctx) {
  AQP_CHECK(plan != nullptr);
  // Operator-boundary cancellation point: deadline/user-cancel/memory trips
  // stop the plan between operators even when no parallel region runs.
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  if (ctx.trace == nullptr) {
    // Untraced path: one branch, no clock reads, no allocations.
    return ExecDispatch(plan, ctx);
  }
  obs::TraceSpan span = ctx.trace->Span(OperatorName(plan->kind()));
  if (plan->kind() == PlanKind::kScan) {
    span.AddAttr("table", plan->table_name());
    const SampleSpec& spec = plan->sample();
    if (spec.is_sampled()) {
      span.AddAttr("sample_method",
                   spec.method == SampleSpec::Method::kSystemBlock
                       ? "system-block"
                       : "bernoulli-row");
      span.AddAttr("sample_rate", spec.rate);
    }
  }
  // Parallel attribution: how many morsels/steals THIS operator (excluding
  // children, whose spans carry their own deltas) contributed.
  const ParallelRunStats* rs = ctx.run_stats();
  uint64_t morsels_before = rs != nullptr ? rs->morsels : 0;
  uint64_t steals_before = rs != nullptr ? rs->steals : 0;
  uint64_t extents_before = ctx.stats != nullptr ? ctx.stats->extents_total : 0;
  uint64_t pruned_before = ctx.stats != nullptr ? ctx.stats->extents_pruned : 0;
  Result<TablePtr> result = ExecDispatch(plan, ctx);
  if (result.ok()) {
    span.AddAttr("rows_out", uint64_t{result.value()->num_rows()});
  }
  if (rs != nullptr && rs->morsels > morsels_before) {
    span.AddAttr("parallel_morsels", rs->morsels - morsels_before);
    span.AddAttr("parallel_steals", rs->steals - steals_before);
  }
  if (ctx.stats != nullptr && ctx.stats->extents_total > extents_before) {
    span.AddAttr("extents_total", ctx.stats->extents_total - extents_before);
    span.AddAttr("extents_pruned", ctx.stats->extents_pruned - pruned_before);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Batch (vectorized) operator path. Scan and filter produce BatchViews —
// selection vectors over the untouched base table — instead of gathered
// tables; project over bare column references is a pure remap. The join
// reads its child views directly; everything else runs the scalar operator
// body over a materialized input (ExecInput gathers exactly once at that
// boundary). Results are bit-identical to the
// scalar path: sampling draws the same per-morsel RNG streams, predicate
// masks are exact (so selection membership is independent of morsel
// boundaries and thread count), and gathers preserve row order.
// ---------------------------------------------------------------------------

Result<BatchView> ExecScanBatch(const PlanNode& node, ExecContext& ctx) {
  AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail("engine.scan"));
  AQP_ASSIGN_OR_RETURN(TablePtr table, ScanBaseTable(node, ctx));
  const SampleSpec& spec = node.sample();
  if (!spec.is_sampled()) {
    if (ctx.stats != nullptr) {
      ctx.stats->rows_scanned += table->num_rows();
      ctx.stats->blocks_read += table->NumBlocks(spec.block_size);
    }
    return IdentityView(std::move(table));
  }
  const bool use_morsels = ctx.options.UseMorsels(table->num_rows());
  uint64_t blocks_read = 0;
  AQP_ASSIGN_OR_RETURN(
      std::vector<uint32_t> keep,
      DrawSampleKeep(*table, spec, use_morsels, ctx, &blocks_read));
  if (ctx.stats != nullptr) {
    ctx.stats->rows_scanned += keep.size();
    ctx.stats->blocks_read += blocks_read;
  }
  // No gather: the sample IS the selection vector.
  BatchView v = IdentityView(std::move(table));
  v.num_rows = keep.size();
  AQP_ASSIGN_OR_RETURN(v.sel, TrackSel(std::move(keep), ctx, "scan selection"));
  return v;
}

// Filters a view without materializing it: the predicate compiles against
// the BASE columns (addressed by the view's names), masks evaluate over
// contiguous base-row spans, and the incoming selection — when present — is
// intersected morsel by morsel. Morselizing BASE row ranges keeps the
// per-morsel work at O(span + selected-in-span) and, because masks are
// exact, makes the output selection independent of morsel boundaries and
// thread count.
Result<BatchView> ExecFilterBatch(const PlanNode& node, ExecContext& ctx) {
  if (UseFusedExtentFilter(node, ctx)) {
    // The fused path already gathered exactly the matching rows; the result
    // enters the batch pipeline as an identity view (same as any
    // table-valued operator's output).
    AQP_ASSIGN_OR_RETURN(TablePtr t,
                         ExecExtentFilterScan(node, *node.child(), ctx));
    return IdentityView(std::move(t));
  }
  AQP_ASSIGN_OR_RETURN(BatchView child, ExecBatch(node.child(), ctx));
  const Expr& pred_expr = *node.predicate();
  // Degenerate inputs (empty, constant predicate) run the scalar evaluator
  // over the materialized child — the same code the row path runs, so
  // results and errors match exactly.
  if (child.num_rows == 0 || pred_expr.ReferencedColumns().empty()) {
    AQP_ASSIGN_OR_RETURN(TablePtr input,
                         MaterializeView(child, ctx, "filter input"));
    AQP_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                         EvalPredicate(pred_expr, *input));
    BatchView out = IdentityView(std::move(input));
    out.num_rows = selected.size();
    AQP_ASSIGN_OR_RETURN(
        out.sel, TrackSel(std::move(selected), ctx, "filter selection"));
    return out;
  }
  std::vector<const Column*> cols;
  cols.reserve(child.col_idx.size());
  for (size_t idx : child.col_idx) cols.push_back(&child.base->column(idx));
  AQP_ASSIGN_OR_RETURN(BatchPredicate pred,
                       BatchPredicate::Compile(pred_expr, child.names, cols));
  if (pred.HasFallback() && child.sel != nullptr) {
    // Scalar-fallback nodes evaluate every row of a span; over a selection
    // view that would touch non-selected base rows and could raise errors
    // (e.g. x % y with y = 0 on a filtered-out row) the row engine never
    // sees. Materialize first so the fallback evaluates exactly the
    // selected rows.
    AQP_ASSIGN_OR_RETURN(TablePtr input,
                         MaterializeView(child, ctx, "filter input"));
    child = IdentityView(std::move(input));
    cols.clear();
    for (size_t idx : child.col_idx) cols.push_back(&child.base->column(idx));
    AQP_ASSIGN_OR_RETURN(
        pred, BatchPredicate::Compile(pred_expr, child.names, cols));
  }
  const size_t base_n = child.base->num_rows();
  const std::vector<uint32_t>* in_sel = child.sel.get();
  size_t morsel_rows = ctx.options.morsel_rows;
  if (morsel_rows == 0) morsel_rows = base_n;
  const size_t num_threads = ctx.options.ResolvedThreads();
  // Same parallelize-or-not decision as the scalar filter: based on the
  // operator's logical input size, not the base span.
  const bool use_morsels = ctx.options.UseMorsels(child.num_rows);
  const size_t num_morsels = (base_n + morsel_rows - 1) / morsel_rows;
  // Charge lookup structures (dictionary pages, IN/LIKE bitmaps) plus mask
  // scratch for the evaluation's lifetime; a refused charge surfaces as
  // ResourceExhausted and trips the governor's degradation ladder exactly
  // like an operator-output charge.
  const uint64_t scratch =
      pred.ScratchBytesPerRow() *
      std::min<uint64_t>(base_n,
                         morsel_rows * std::max<size_t>(num_threads, 1));
  ScopedMemoryCharge charge;
  AQP_ASSIGN_OR_RETURN(
      charge, ScopedMemoryCharge::Make(ctx.options.memory,
                                       pred.AuxBytes() + scratch,
                                       "predicate batch buffers"));
  // Evaluates base rows [begin, end) and appends surviving selection
  // entries (ascending) to *dst.
  auto run_span = [&](size_t begin, size_t end, uint8_t* mask,
                      std::vector<uint32_t>* dst) -> Status {
    if (in_sel != nullptr) {
      auto lo = std::lower_bound(in_sel->begin(), in_sel->end(),
                                 static_cast<uint32_t>(begin));
      auto hi = std::lower_bound(lo, in_sel->end(),
                                 static_cast<uint32_t>(end));
      if (lo == hi) return Status::OK();  // No selected rows in this span.
      AQP_RETURN_IF_ERROR(pred.EvalSpan(begin, end - begin, mask));
      for (auto it = lo; it != hi; ++it) {
        if (mask[*it - begin] == simd::kMaskTrue) dst->push_back(*it);
      }
      return Status::OK();
    }
    AQP_RETURN_IF_ERROR(pred.EvalSpan(begin, end - begin, mask));
    simd::SelectTrue(mask, end - begin, static_cast<uint32_t>(begin), dst);
    return Status::OK();
  };
  std::vector<uint32_t> out_sel;
  if (!use_morsels || num_threads <= 1 || num_morsels <= 1) {
    std::vector<uint8_t> mask(std::min<size_t>(base_n, morsel_rows));
    for (size_t begin = 0; begin < base_n; begin += morsel_rows) {
      AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
      const size_t end = std::min(base_n, begin + morsel_rows);
      AQP_RETURN_IF_ERROR(run_span(begin, end, mask.data(), &out_sel));
    }
  } else {
    std::vector<std::vector<uint32_t>> local(num_morsels);
    std::vector<Status> errors(num_morsels, Status::OK());
    ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
        base_n, morsel_rows, num_threads, ctx.pf_options(),
        [&](size_t, size_t m, size_t begin, size_t end) {
          std::vector<uint8_t> mask(end - begin);
          errors[m] = run_span(begin, end, mask.data(), &local[m]);
        });
    AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
    for (const Status& s : errors) {
      AQP_RETURN_IF_ERROR(s);
    }
    size_t total = 0;
    for (const std::vector<uint32_t>& v : local) total += v.size();
    out_sel.reserve(total);
    // Ordered merge: morsel index order IS base-row order.
    for (const std::vector<uint32_t>& v : local) {
      out_sel.insert(out_sel.end(), v.begin(), v.end());
    }
    if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
  }
  BatchView out;
  out.base = child.base;
  out.col_idx = child.col_idx;
  out.names = child.names;
  out.num_rows = out_sel.size();
  AQP_ASSIGN_OR_RETURN(
      out.sel, TrackSel(std::move(out_sel), ctx, "filter selection"));
  return out;
}

// Project over bare column references is a zero-copy column remap; anything
// computed materializes the child and reuses the scalar projection.
Result<BatchView> ExecProjectBatch(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(BatchView child, ExecBatch(node.child(), ctx));
  bool all_colrefs = true;
  for (const ExprPtr& e : node.exprs()) {
    if (e->kind() != ExprKind::kColumnRef) {
      all_colrefs = false;
      break;
    }
  }
  if (all_colrefs) {
    BatchView out;
    out.base = child.base;
    out.sel = child.sel;
    out.num_rows = child.num_rows;
    out.col_idx.reserve(node.exprs().size());
    out.names.reserve(node.exprs().size());
    const Schema child_schema = ViewSchema(child);
    for (size_t i = 0; i < node.exprs().size(); ++i) {
      const std::string& ref = node.exprs()[i]->column_name();
      Result<size_t> found = child_schema.FieldIndex(ref);
      if (!found.ok()) {
        return Status::InvalidArgument("unknown column: " + ref);
      }
      out.col_idx.push_back(child.col_idx[found.value()]);
      out.names.push_back(node.names()[i]);
    }
    return out;
  }
  AQP_ASSIGN_OR_RETURN(TablePtr input,
                       MaterializeView(child, ctx, "project input"));
  const size_t num_exprs = node.exprs().size();
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < num_exprs; ++i) {
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*node.exprs()[i], *input));
    schema.AddField({node.names()[i], c.type()});
    columns.push_back(std::move(c));
  }
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(std::move(schema), std::move(columns)));
  AQP_ASSIGN_OR_RETURN(TablePtr tracked,
                       TrackTable(std::move(out), ctx, "project output"));
  return IdentityView(std::move(tracked));
}

Result<BatchView> ExecDispatchBatch(const PlanPtr& plan, ExecContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecScanBatch(*plan, ctx);
    case PlanKind::kFilter:
      return ExecFilterBatch(*plan, ctx);
    case PlanKind::kProject:
      return ExecProjectBatch(*plan, ctx);
    default: {
      // Table-valued operators run their scalar bodies; their children
      // arrive through ExecInputView, which stays on the batch path (and
      // ExecInput gathers at this boundary).
      AQP_ASSIGN_OR_RETURN(TablePtr t, ExecDispatch(plan, ctx));
      return IdentityView(std::move(t));
    }
  }
}

// Batch twin of Exec: same cancellation point, same trace spans with the
// same attribute set (rows_out counts view rows, so traces are comparable
// across paths).
Result<BatchView> ExecBatch(const PlanPtr& plan, ExecContext& ctx) {
  AQP_CHECK(plan != nullptr);
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  if (ctx.trace == nullptr) {
    return ExecDispatchBatch(plan, ctx);
  }
  obs::TraceSpan span = ctx.trace->Span(OperatorName(plan->kind()));
  if (plan->kind() == PlanKind::kScan) {
    span.AddAttr("table", plan->table_name());
    const SampleSpec& spec = plan->sample();
    if (spec.is_sampled()) {
      span.AddAttr("sample_method",
                   spec.method == SampleSpec::Method::kSystemBlock
                       ? "system-block"
                       : "bernoulli-row");
      span.AddAttr("sample_rate", spec.rate);
    }
  }
  const ParallelRunStats* rs = ctx.run_stats();
  uint64_t morsels_before = rs != nullptr ? rs->morsels : 0;
  uint64_t steals_before = rs != nullptr ? rs->steals : 0;
  uint64_t extents_before = ctx.stats != nullptr ? ctx.stats->extents_total : 0;
  uint64_t pruned_before = ctx.stats != nullptr ? ctx.stats->extents_pruned : 0;
  Result<BatchView> result = ExecDispatchBatch(plan, ctx);
  if (result.ok()) {
    span.AddAttr("rows_out", uint64_t{result.value().num_rows});
  }
  if (rs != nullptr && rs->morsels > morsels_before) {
    span.AddAttr("parallel_morsels", rs->morsels - morsels_before);
    span.AddAttr("parallel_steals", rs->steals - steals_before);
  }
  if (ctx.stats != nullptr && ctx.stats->extents_total > extents_before) {
    span.AddAttr("extents_total", ctx.stats->extents_total - extents_before);
    span.AddAttr("extents_pruned", ctx.stats->extents_pruned - pruned_before);
  }
  return result;
}

}  // namespace

Result<Table> Execute(const PlanPtr& plan, const Catalog& catalog,
                      ExecStats* stats, obs::QueryTrace* trace,
                      const ExecOptions& options) {
  const bool instrumented = obs::Enabled();
  ExecStats local;
  // Metrics need the deltas even when the caller didn't ask for stats.
  ExecStats* effective = stats != nullptr ? stats : &local;
  ExecStats before = instrumented ? *effective : ExecStats{};
  ExecContext ctx{catalog, instrumented ? effective : stats, trace, options};
  TablePtr result;
  if (options.ResolvedPath() == ExecPath::kVectorized) {
    // Vectorized root: run the plan as batch views, gather once at the top.
    // The gather is the deferred row movement of the whole pipeline, so it
    // gets its own span with the morsel attribution the scalar path records
    // at its per-operator gathers.
    AQP_ASSIGN_OR_RETURN(BatchView view, ExecBatch(plan, ctx));
    if (trace == nullptr) {
      AQP_ASSIGN_OR_RETURN(result,
                           MaterializeView(view, ctx, "result materialize"));
    } else {
      obs::TraceSpan span = trace->Span("materialize");
      const ParallelRunStats* rs = ctx.run_stats();
      uint64_t morsels_before = rs != nullptr ? rs->morsels : 0;
      uint64_t steals_before = rs != nullptr ? rs->steals : 0;
      AQP_ASSIGN_OR_RETURN(result,
                           MaterializeView(view, ctx, "result materialize"));
      span.AddAttr("rows_out", uint64_t{result->num_rows()});
      if (rs != nullptr && rs->morsels > morsels_before) {
        span.AddAttr("parallel_morsels", rs->morsels - morsels_before);
        span.AddAttr("parallel_steals", rs->steals - steals_before);
      }
    }
  } else {
    AQP_ASSIGN_OR_RETURN(result, Exec(plan, ctx));
  }
  if (instrumented) {
    // Handles cached across calls: one registry lock each, first call only.
    static obs::Counter* plans = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_plans_executed_total");
    static obs::Counter* rows = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_rows_scanned_total");
    static obs::Counter* blocks = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_blocks_read_total");
    static obs::Counter* joined = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_rows_joined_total");
    static obs::Counter* morsels = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_parallel_morsels_total");
    static obs::Counter* steals = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_parallel_steals_total");
    static obs::Counter* extents = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_extents_scanned_total");
    static obs::Counter* pruned = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_extents_pruned_total");
    plans->Increment();
    rows->Increment(effective->rows_scanned - before.rows_scanned);
    blocks->Increment(effective->blocks_read - before.blocks_read);
    joined->Increment(effective->rows_joined - before.rows_joined);
    morsels->Increment(effective->parallel.morsels - before.parallel.morsels);
    steals->Increment(effective->parallel.steals - before.parallel.steals);
    extents->Increment(effective->extents_total - before.extents_total);
    pruned->Increment(effective->extents_pruned - before.extents_pruned);
  }
  // A root the query built (the root gather or an operator's output) is
  // handed over without a copy; only a root that still aliases a table held
  // elsewhere, a bare scan of a catalog table, is copied.
  if (result.use_count() == 1) {
    return std::move(const_cast<Table&>(*result));
  }
  return *result;
}

}  // namespace aqp
