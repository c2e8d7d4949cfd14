/**
 * @file
 * Repository benchmark driver.
 *
 * One process runs one workload for one seed: it generates the inputs
 * with the public gen::* generators (set-up, timed separately), fans
 * the (matrix, technique) cells out with core::runGrid on a
 * par::ThreadPool installed through par::ScopedPoolOverride, checks
 * every output, and prints each metric by name with its unit. The last
 * line of standard output is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 reports the
 * per-layer metrics, taken from spans this file records around every
 * call into a library layer. README.md in this directory explains the
 * workloads and how to read the spans.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/belady.hpp"
#include "cache/sharded.hpp"
#include "community/aggregation.hpp"
#include "core/experiment.hpp"
#include "core/grid.hpp"
#include "gpu/gpu_spec.hpp"
#include "gpu/sim_stream.hpp"
#include "gpu/simulate.hpp"
#include "kernels/access_stream.hpp"
#include "matrix/generators.hpp"
#include "matrix/permutation.hpp"
#include "par/parallel.hpp"
#include "par/thread_pool.hpp"
#include "prof/counters.hpp"
#include "reorder/reorder.hpp"

namespace
{

using namespace slo;
using Clock = std::chrono::steady_clock;
using reorder::Technique;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ---------------------------------------------------------------------
// Spans and work counts, recorded around each call into a layer.

enum class Phase : int
{
    Setup,
    Timed,
    Quality,
};

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Setup: return "setup";
      case Phase::Timed: return "timed";
      case Phase::Quality: return "quality";
    }
    return "?";
}

struct Span
{
    std::string name;
    Phase phase = Phase::Setup;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;
    int parent = -1; ///< enclosing span on the same thread, or -1
    std::uint64_t work = 0;
    std::size_t thread = 0;
};

/**
 * In-memory span and counter store. Enabled, disabled and re-phased
 * only from the driver thread while no parallel work is in flight;
 * spans are opened and closed from any pool thread.
 */
class Tracer
{
  public:
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void setEnabled(bool on) { enabled_.store(on); }
    void setPhase(Phase phase) { phase_.store(static_cast<int>(phase)); }

    int
    open(const char *name, int parent)
    {
        Span span;
        span.name = name;
        span.phase = static_cast<Phase>(phase_.load());
        span.parent = parent;
        span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
        span.start = secondsBetween(origin_, Clock::now());
        const std::lock_guard lock(mutex_);
        spans_.push_back(std::move(span));
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id, std::uint64_t work)
    {
        const double end = secondsBetween(origin_, Clock::now());
        const std::lock_guard lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = end;
        spans_[static_cast<std::size_t>(id)].work = work;
    }

    void
    count(const std::string &name, std::uint64_t value)
    {
        if (!enabled())
            return;
        const std::lock_guard lock(mutex_);
        counts_[name] += value;
    }

    std::vector<Span>
    spans() const
    {
        const std::lock_guard lock(mutex_);
        return spans_;
    }

    std::uint64_t
    counted(const std::string &name) const
    {
        const std::lock_guard lock(mutex_);
        const auto it = counts_.find(name);
        return it == counts_.end() ? 0 : it->second;
    }

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<int> phase_{0};
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_; ///< guards spans_ and counts_
    std::vector<Span> spans_;
    std::map<std::string, std::uint64_t> counts_;
};

Tracer g_tracer;
thread_local int t_openSpan = -1;

/** RAII span; a no-op (no clock read) while tracing is off. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
    {
        if (!g_tracer.enabled())
            return;
        parent_ = t_openSpan;
        id_ = g_tracer.open(name, parent_);
        t_openSpan = id_;
    }

    ~SpanScope()
    {
        if (id_ < 0)
            return;
        g_tracer.close(id_, work_);
        t_openSpan = parent_;
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Work units this call performed (nnz, accesses, ...). */
    void setWork(std::uint64_t work) { work_ = work; }

  private:
    int id_ = -1;
    int parent_ = -1;
    std::uint64_t work_ = 0;
};

// ---------------------------------------------------------------------
// Cell outcomes and checks.

/** Cells attempted and failed, over the whole run. */
struct Tally
{
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
};

Tally g_tally;

/** A failed check: counted, reported on stderr, never fatal. */
void
fail(const std::string &where, const std::string &what)
{
    std::cerr << "perfbench: check failed in " << where << ": " << what
              << "\n";
}

/** Is @p new_ids a bijection on [0, n)? */
bool
isBijection(const std::vector<Index> &new_ids, Index n)
{
    return static_cast<Index>(new_ids.size()) == n &&
           Permutation::isPermutation(new_ids);
}

std::string
techniqueKey(Technique technique)
{
    // Metric names allow no '+': RABBIT++ is spelled RABBITPP.
    std::string name = reorder::techniqueName(technique);
    const auto plus = name.find("++");
    if (plus != std::string::npos)
        name.replace(plus, 2, "PP");
    return name;
}

/** SpMV-CSR accesses: 2n + 3 nnz + (non-empty rows), for any order. */
std::uint64_t
expectedSpmvAccesses(const Csr &matrix)
{
    std::uint64_t non_empty = 0;
    for (Index r = 0; r < matrix.numRows(); ++r)
        non_empty += matrix.degree(r) > 0 ? 1 : 0;
    return 2 * static_cast<std::uint64_t>(matrix.numRows()) +
           3 * static_cast<std::uint64_t>(matrix.numNonZeros()) + non_empty;
}

/**
 * The modelled L2: 64 KiB, shrunk to the largest power of two <= n
 * bytes for inputs below 64 Ki rows, so the 4-byte X vector is always
 * at least 4x the cache (the paper's regime).
 */
gpu::GpuSpec
specFor(Index n)
{
    const auto rows = static_cast<std::uint64_t>(std::max<Index>(n, 4096));
    return gpu::GpuSpec::a6000ScaledL2(
        std::min<std::uint64_t>(64 * 1024, std::bit_floor(rows)));
}

// ---------------------------------------------------------------------
// Workloads.

/** Pipeline steps a simulate cell runs, after permuting. */
enum Step : unsigned
{
    kSpmvLru = 1u << 0,   ///< stream, LRU replay, gpu::simulateKernel
    kSpmvOpt = 1u << 1,   ///< Belady OPT over the SpMV-CSR stream
    kSpgemmLru = 1u << 2, ///< SpGEMM A*A through gpu::simulateKernel
};

struct Workload
{
    std::string name;
    bool warm = false;
    std::vector<Technique> techniques;
    unsigned timedSteps = 0;   ///< warm only
    unsigned qualitySteps = 0; ///< after the timed phase, untimed
    int setupRepeats = 3;
    std::vector<core::CorpusMatrix> (*generate)(std::uint64_t seed) = nullptr;
};

core::CorpusMatrix
input(std::string name, std::string domain, Csr matrix)
{
    core::CorpusMatrix m;
    m.entry.name = std::move(name);
    m.entry.domain = std::move(domain);
    m.original = std::move(matrix);
    return m;
}

Csr
relabelled(const Csr &matrix, std::uint64_t seed)
{
    return matrix.permutedSymmetric(
        Permutation::random(matrix.numRows(), seed));
}

std::vector<core::CorpusMatrix>
coldMeshInputs(std::uint64_t seed)
{
    // Natural (row-major) order: RABBIT's aggregation keeps rescanning
    // the giant community's boundary on these.
    std::vector<core::CorpusMatrix> corpus;
    corpus.push_back(input("stencil7-24", "mesh",
                           gen::stencil3d(24, 24, 24, 7, seed)));
    corpus.push_back(input("grid2d-192", "mesh",
                           gen::grid2d(192, 192, 0.01, seed + 3)));
    return corpus;
}

std::vector<core::CorpusMatrix>
coldSocialInputs(std::uint64_t seed)
{
    std::vector<core::CorpusMatrix> corpus;
    corpus.push_back(input(
        "rmat13-d8", "social",
        relabelled(gen::rmatSocial(13, 8.0, seed), seed + 100)));
    corpus.push_back(input(
        "rmat13-d10-lowskew", "social",
        relabelled(gen::rmat(13, 10.0, 0.45, 0.22, 0.22, seed + 1),
                   seed + 101)));
    corpus.push_back(input(
        "rmat13-d6", "social",
        relabelled(gen::rmatSocial(13, 6.0, seed + 2), seed + 102)));
    corpus.push_back(input(
        "hier-32k", "hierarchy",
        relabelled(gen::hierarchicalCommunity(32768, 4, 6, 12.0, 0.3,
                                              seed + 3),
                   seed + 103)));
    return corpus;
}

std::vector<core::CorpusMatrix>
warmInputs(std::uint64_t seed)
{
    // n >= 65536 everywhere: X (4 bytes per row) is at least 4x the
    // modelled 64 KiB L2.
    std::vector<core::CorpusMatrix> corpus;
    corpus.push_back(input(
        "ba-64k", "social",
        relabelled(gen::barabasiAlbert(65536, 2, seed), seed + 100)));
    corpus.push_back(input(
        "hier-64k", "hierarchy",
        relabelled(gen::hierarchicalCommunity(65536, 4, 6, 8.0, 0.3,
                                              seed + 1),
                   seed + 101)));
    corpus.push_back(input(
        "stencil7-41", "mesh",
        relabelled(gen::stencil3d(41, 41, 41, 7, seed + 2), seed + 102)));
    corpus.push_back(input("grid2d-256", "mesh",
                           gen::grid2d(256, 256, 0.01, seed + 3)));
    return corpus;
}

const std::vector<Technique> kColdTechniques = {
    Technique::Rabbit, Technique::RabbitPlusPlus, Technique::Gorder,
    Technique::Dbg};

/** Fig. 2's six techniques plus RABBIT++. */
const std::vector<Technique> kWarmTechniques = {
    Technique::Original, Technique::Random, Technique::DegSort,
    Technique::Dbg,      Technique::Gorder, Technique::Rabbit,
    Technique::RabbitPlusPlus};

std::vector<Workload>
workloads()
{
    return {
        {"cold-mesh", false, kColdTechniques, 0, kSpmvLru | kSpmvOpt, 9,
         coldMeshInputs},
        {"cold-social", false, kColdTechniques, 0, kSpmvLru | kSpmvOpt, 9,
         coldSocialInputs},
        {"warm-spmv", true, kWarmTechniques, kSpmvLru, kSpmvOpt, 3,
         warmInputs},
        {"warm-opt-spgemm", true, kWarmTechniques, kSpmvOpt | kSpgemmLru,
         kSpmvLru, 3, warmInputs},
    };
}

// ---------------------------------------------------------------------
// Cells.

struct Options
{
    std::uint64_t seed = 1;
    bool injectBadPermutation = false;
};

/** One ordering cell's result; empty perm when the cell failed. */
struct OrderingCell
{
    std::optional<Permutation> perm;
};

using OrderingTable = std::vector<std::vector<OrderingCell>>;

OrderingCell
orderCell(const core::GridCell &cell, const Options &options)
{
    g_tally.attempted.fetch_add(1);
    SpanScope cell_span("cell");
    const Csr &matrix = cell.matrix->original;
    const std::string where =
        cell.matrix->entry.name + "/" + techniqueKey(cell.technique);
    try {
        reorder::ReorderOptions reorder_options;
        reorder_options.seed = options.seed;
        const std::string span_name = "reorder." + techniqueKey(cell.technique);
        std::vector<Index> new_ids;
        {
            SpanScope span(span_name.c_str());
            new_ids = reorder::computeOrdering(cell.technique, matrix,
                                               reorder_options)
                          .newIds();
            span.setWork(static_cast<std::uint64_t>(matrix.numNonZeros()));
        }
        if (options.injectBadPermutation && cell.matrixIndex == 0 &&
            cell.techniqueIndex == 0 && new_ids.size() > 1) {
            new_ids[0] = new_ids[1]; // two rows mapped to one slot
        }
        if (!isBijection(new_ids, matrix.numRows())) {
            fail(where, "ordering is not a bijection on [0, n)");
            g_tally.failed.fetch_add(1);
            return {};
        }
        return {Permutation(std::move(new_ids))};
    } catch (const std::exception &e) {
        fail(where, e.what());
        g_tally.failed.fetch_add(1);
        return {};
    }
}

void
communityCell(const core::CorpusMatrix &m)
{
    g_tally.attempted.fetch_add(1);
    SpanScope cell_span("cell");
    try {
        // Every generator emits a symmetric pattern, so the input is
        // already the undirected view aggregation expects.
        const Csr &graph = m.original;
        const community::AggregationResult agg = [&] {
            SpanScope span("community.aggregate");
            span.setWork(static_cast<std::uint64_t>(graph.numNonZeros()));
            return community::aggregateCommunities(graph);
        }();
        const Index communities = agg.clustering.numCommunities();
        if (communities < 1 || communities > graph.numRows() ||
            agg.numMerges + communities != graph.numRows()) {
            fail(m.entry.name + "/community",
                 "merges + communities != n");
            g_tally.failed.fetch_add(1);
            return;
        }
        g_tracer.count("community.merges",
                       static_cast<std::uint64_t>(agg.numMerges));
        g_tracer.count("community.communities",
                       static_cast<std::uint64_t>(communities));
    } catch (const std::exception &e) {
        fail(m.entry.name + "/community", e.what());
        g_tally.failed.fetch_add(1);
    }
}

/** Checks inside a simulate cell; the first failure is reported. */
class CellChecks
{
  public:
    explicit CellChecks(std::string where) : where_(std::move(where)) {}

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok && ok_) {
            fail(where_, what);
            ok_ = false;
        }
    }

    bool ok() const { return ok_; }

  private:
    std::string where_;
    bool ok_ = true;
};

bool
coherent(const cache::CacheStats &stats)
{
    return stats.hits + stats.misses == stats.accesses;
}

/** Result of one simulate cell. */
struct SimCell
{
    bool ran = false; ///< false when the ordering is missing
    std::optional<double> normTraffic; ///< SpMV-CSR LRU, when simulated
};

/** Permute, then run @p steps on the permuted matrix. */
SimCell
simulateCell(const core::CorpusMatrix &m, Technique technique,
             const Permutation &perm, unsigned steps,
             std::uint64_t expected_spmv)
{
    g_tally.attempted.fetch_add(1);
    SpanScope cell_span("cell");
    SimCell result;
    result.ran = true;
    CellChecks checks(m.entry.name + "/" + techniqueKey(technique));
    try {
        Csr permuted;
        {
            SpanScope span("matrix.permute");
            permuted = m.original.permutedSymmetric(perm);
            span.setWork(static_cast<std::uint64_t>(permuted.numNonZeros()));
        }
        g_tracer.count("matrix.permute_nnz",
                       static_cast<std::uint64_t>(permuted.numNonZeros()));
        const Index n = permuted.numRows();
        const Offset nnz = permuted.numNonZeros();
        const gpu::GpuSpec spec = specFor(n);
        const std::uint32_t line_bytes = spec.l2.lineBytes;
        const kernels::StreamOptions stream_options;
        const kernels::AddressLayout layout =
            kernels::makeLayout(kernels::KernelKind::SpmvCsr, n, nnz,
                                stream_options.denseCols, line_bytes);

        if (steps & kSpmvLru) {
            std::vector<std::uint64_t> stream;
            {
                SpanScope span("kernels.stream");
                stream.reserve(expected_spmv);
                kernels::forEachAccess(
                    kernels::KernelKind::SpmvCsr, permuted, layout,
                    stream_options, line_bytes,
                    [&stream](std::uint64_t addr) {
                        stream.push_back(addr);
                    });
                span.setWork(stream.size());
            }
            g_tracer.count("kernels.accesses", stream.size());
            checks.expect(stream.size() == expected_spmv,
                          "SpMV-CSR accesses != 2n + 3nnz + non-empty "
                          "rows");

            cache::CacheStats lru;
            {
                SpanScope span("cache.lru_replay");
                cache::ShardedCacheSim sim(spec.l2);
                sim.setIrregularRegion(layout.xBase, layout.xEnd);
                for (std::size_t i = 0; i < stream.size();
                     i += gpu::kSimBatchAccesses) {
                    sim.accessBatch(stream.data() + i,
                                    std::min(gpu::kSimBatchAccesses,
                                             stream.size() - i));
                }
                sim.finish();
                lru = sim.stats();
                span.setWork(lru.accesses);
            }
            g_tracer.count("cache.lru_accesses", lru.accesses);
            g_tracer.count("cache.hits", lru.hits);
            g_tracer.count("cache.misses", lru.misses);
            checks.expect(coherent(lru), "LRU hits + misses != accesses");
            checks.expect(lru.accesses == stream.size(),
                          "LRU replay lost accesses");

            gpu::SimReport report;
            {
                SpanScope span("gpu.simulate");
                report = gpu::simulateKernel(permuted, spec);
                span.setWork(report.cacheStats.accesses);
            }
            checks.expect(coherent(report.cacheStats),
                          "gpu hits + misses != accesses");
            checks.expect(report.cacheStats.accesses == lru.accesses &&
                              report.cacheStats.misses == lru.misses,
                          "gpu::simulateKernel disagrees with the "
                          "stream + LRU replay");
            checks.expect(std::isfinite(report.normalizedTraffic) &&
                              report.normalizedTraffic > 0.0,
                          "normalized traffic is not positive");
            result.normTraffic = report.normalizedTraffic;
        }

        if (steps & kSpmvOpt) {
            cache::CacheStats opt;
            {
                SpanScope span("cache.opt_replay");
                opt = cache::simulateBeladyStreamed(
                    spec.l2, layout.xBase, layout.xEnd, expected_spmv,
                    [&](auto &&sink) {
                        kernels::forEachAccess(
                            kernels::KernelKind::SpmvCsr, permuted, layout,
                            stream_options, line_bytes, sink);
                    });
                span.setWork(opt.accesses);
            }
            g_tracer.count("cache.opt_accesses", opt.accesses);
            checks.expect(coherent(opt), "OPT hits + misses != accesses");
            checks.expect(opt.accesses == expected_spmv,
                          "OPT SpMV-CSR accesses != 2n + 3nnz + "
                          "non-empty rows");
        }

        if ((steps & kSpgemmLru) && m.entry.domain == "mesh") {
            gpu::SimOptions sim_options;
            sim_options.kernel = kernels::KernelKind::SpgemmAA;
            gpu::SimReport report;
            {
                SpanScope span("gpu.simulate");
                report = gpu::simulateKernel(permuted, spec, sim_options);
                span.setWork(report.cacheStats.accesses);
            }
            g_tracer.count("kernels.spgemm_flops", report.spgemm.flops);
            std::uint64_t accesses = 0;
            {
                SpanScope span("kernels.stream");
                const kernels::AddressLayout sp_layout = kernels::makeLayout(
                    sim_options.kernel, n, nnz, stream_options.denseCols,
                    line_bytes, static_cast<Offset>(report.spgemm.nnzC));
                kernels::forEachAccess(sim_options.kernel, permuted,
                                       sp_layout, stream_options,
                                       line_bytes,
                                       [&accesses](std::uint64_t) {
                                           ++accesses;
                                       });
                span.setWork(accesses);
            }
            g_tracer.count("kernels.accesses", accesses);
            const std::uint64_t expected =
                3 * static_cast<std::uint64_t>(n) +
                4 * static_cast<std::uint64_t>(nnz) +
                2 * report.spgemm.flops + 2 * report.spgemm.nnzC;
            checks.expect(coherent(report.cacheStats),
                          "SpGEMM hits + misses != accesses");
            checks.expect(accesses == expected &&
                              report.cacheStats.accesses == expected,
                          "SpGEMM accesses != 3n + 4nnz + 2flops + 2nnzC");
        }
    } catch (const std::exception &e) {
        checks.expect(false, e.what());
    }
    if (!checks.ok())
        g_tally.failed.fetch_add(1);
    return result;
}

// ---------------------------------------------------------------------
// Phases.

struct Prepared
{
    std::vector<core::CorpusMatrix> corpus;
    std::vector<std::uint64_t> expectedSpmv; ///< per matrix
    OrderingTable orderings;                 ///< warm: from set-up
};

Prepared
setUp(const Workload &workload, const Options &options)
{
    Prepared p;
    {
        SpanScope span("gen.inputs");
        p.corpus = workload.generate(options.seed);
    }
    for (const core::CorpusMatrix &m : p.corpus)
        p.expectedSpmv.push_back(expectedSpmvAccesses(m.original));
    if (workload.warm) {
        par::parallelFor(
            std::size_t{0}, p.corpus.size(),
            [&](std::size_t i) { communityCell(p.corpus[i]); },
            par::ForOptions{1});
        p.orderings = core::runGrid(
            p.corpus, workload.techniques,
            [&](const core::GridCell &c) { return orderCell(c, options); });
    }
    return p;
}

struct RoundResult
{
    double wallSeconds = 0.0;
    std::uint64_t cellNnz = 0; ///< input nnz summed over cells
    OrderingTable orderings;   ///< cold only
    std::vector<double> normTraffic;
};

std::vector<double>
normTrafficOf(const std::vector<std::vector<SimCell>> &table)
{
    std::vector<double> values;
    for (const auto &row : table)
        for (const SimCell &cell : row)
            if (cell.normTraffic)
                values.push_back(*cell.normTraffic);
    return values;
}

/** Run every simulate cell of @p orderings with @p steps. */
std::vector<std::vector<SimCell>>
simulateAll(const Workload &workload, const Prepared &p,
            const OrderingTable &orderings, unsigned steps)
{
    return core::runGrid(
        p.corpus, workload.techniques, [&](const core::GridCell &c) {
            const OrderingCell &ordering =
                orderings[c.matrixIndex][c.techniqueIndex];
            if (!ordering.perm)
                return SimCell{};
            return simulateCell(*c.matrix, c.technique, *ordering.perm,
                                steps, p.expectedSpmv[c.matrixIndex]);
        });
}

/** One pass over every cell of the workload's timed phase. */
RoundResult
timedRound(const Workload &workload, const Prepared &p,
           const Options &options)
{
    RoundResult r;
    const auto start = Clock::now();
    if (workload.warm) {
        const auto table =
            simulateAll(workload, p, p.orderings, workload.timedSteps);
        r.wallSeconds = secondsBetween(start, Clock::now());
        r.normTraffic = normTrafficOf(table);
    } else {
        // Orderings and community aggregation share the pool, so
        // neither waits for the other's stragglers.
        par::parallelInvoke(
            [&] {
                r.orderings = core::runGrid(
                    p.corpus, workload.techniques,
                    [&](const core::GridCell &c) {
                        return orderCell(c, options);
                    });
            },
            [&] {
                par::parallelFor(
                    std::size_t{0}, p.corpus.size(),
                    [&](std::size_t i) { communityCell(p.corpus[i]); },
                    par::ForOptions{1});
            });
        r.wallSeconds = secondsBetween(start, Clock::now());
    }
    for (const core::CorpusMatrix &m : p.corpus) {
        r.cellNnz += static_cast<std::uint64_t>(m.original.numNonZeros()) *
                     workload.techniques.size();
    }
    return r;
}

/** The untraced timed phase: rounds until @p seconds have passed. */
std::vector<RoundResult>
timedPhase(const Workload &workload, const Prepared &p,
           const Options &options, double seconds)
{
    std::vector<RoundResult> rounds;
    const auto start = Clock::now();
    do {
        rounds.push_back(timedRound(workload, p, options));
    } while (secondsBetween(start, Clock::now()) < seconds);
    return rounds;
}

/** Untimed pass after the timed phase; returns SpMV norm traffic. */
std::vector<double>
qualityPass(const Workload &workload, const Prepared &p,
            const RoundResult &last)
{
    const OrderingTable &orderings =
        workload.warm ? p.orderings : last.orderings;
    return normTrafficOf(
        simulateAll(workload, p, orderings, workload.qualitySteps));
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void
printResult(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " " << formatNumber(m.value)
                  << " " << m.unit << "\n";
    }
    const std::uint64_t attempted = g_tally.attempted.load();
    const std::uint64_t failed = g_tally.failed.load();
    std::ostringstream json;
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        json << (first ? "" : ", ") << "\"" << m.name
             << "\": {\"value\": " << formatNumber(m.value)
             << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"phase\": \"" << phaseName(s.phase)
            << "\", \"start_s\": " << formatNumber(s.start)
            << ", \"end_s\": " << formatNumber(s.end)
            << ", \"parent\": " << s.parent << ", \"work\": " << s.work
            << ", \"thread\": " << s.thread << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

/** Summed duration and work of every span named @p name. */
struct SpanTotal
{
    double seconds = 0.0;
    std::uint64_t work = 0;
    std::vector<double> samples;
};

SpanTotal
spanTotal(const std::vector<Span> &spans, const std::string &name,
          std::optional<Phase> phase = std::nullopt)
{
    SpanTotal total;
    for (const Span &s : spans) {
        if (s.name != name || (phase && s.phase != *phase))
            continue;
        total.seconds += s.end - s.start;
        total.work += s.work;
        total.samples.push_back(s.end - s.start);
    }
    return total;
}

double
nsPer(double seconds, std::uint64_t work)
{
    return work == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(work);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
poolBusySeconds(const par::ThreadPool &pool)
{
    return pool.statsJson().at("busy_seconds").asDouble();
}

double
poolParkSeconds(const par::ThreadPool &pool)
{
    return pool.statsJson().at("park_seconds").asDouble();
}

/** --trace 0: set up several times, time rounds, check quality. */
std::vector<Metric>
runEndToEnd(const Workload &workload, const Options &options,
            double seconds)
{
    std::vector<double> setup_seconds;
    Prepared p;
    for (int i = 0; i < workload.setupRepeats; ++i) {
        const auto start = Clock::now();
        p = setUp(workload, options);
        setup_seconds.push_back(secondsBetween(start, Clock::now()));
    }
    const std::vector<RoundResult> rounds =
        timedPhase(workload, p, options, seconds);
    std::vector<double> walls;
    for (const RoundResult &r : rounds)
        walls.push_back(r.wallSeconds);
    const double wall = median(walls);

    std::vector<double> traffic = qualityPass(workload, p, rounds.back());
    if (workload.warm && (workload.timedSteps & kSpmvLru))
        traffic = rounds.back().normTraffic;
    const double peak_rss_mb =
        static_cast<double>(prof::peakRssKb()) / 1024.0;

    std::cout << "info setup_s";
    for (double t : setup_seconds)
        std::cout << " " << formatNumber(t);
    std::cout << "\n";
    std::cout << "info rounds " << rounds.size() << " wall_s_min "
              << formatNumber(*std::min_element(walls.begin(), walls.end()))
              << " wall_s_max "
              << formatNumber(*std::max_element(walls.begin(), walls.end()))
              << "\n";
    return {
        {"wall_s", wall, "s"},
        {"setup_s", median(setup_seconds), "s"},
        {"nnz_per_s", ratio(static_cast<double>(rounds.back().cellNnz), wall),
         "nnz/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"norm_traffic_mean", mean(traffic), "ratio"},
    };
}

/** --trace 1: untraced rounds, one traced pass, one 1-thread round. */
std::vector<Metric>
runPerLayer(const Workload &workload, const Options &options,
            double seconds, par::ThreadPool &pool,
            const std::string &spans_out)
{
    g_tracer.setEnabled(true);
    g_tracer.setPhase(Phase::Setup);
    const Prepared p = setUp(workload, options);
    g_tracer.setEnabled(false);

    const double busy0 = poolBusySeconds(pool);
    const double park0 = poolParkSeconds(pool);
    const std::vector<RoundResult> rounds =
        timedPhase(workload, p, options, seconds);
    const double busy = poolBusySeconds(pool) - busy0;
    const double park = poolParkSeconds(pool) - park0;
    std::vector<double> walls;
    for (const RoundResult &r : rounds)
        walls.push_back(r.wallSeconds);
    const double wall = median(walls);

    g_tracer.setEnabled(true);
    g_tracer.setPhase(Phase::Timed);
    const RoundResult traced = timedRound(workload, p, options);
    g_tracer.setPhase(Phase::Quality);
    std::vector<double> traffic = qualityPass(workload, p, traced);
    g_tracer.setEnabled(false);
    if (workload.warm && (workload.timedSteps & kSpmvLru))
        traffic = traced.normTraffic;

    double serial_wall = 0.0;
    {
        par::ThreadPool serial(1);
        const par::ScopedPoolOverride use_serial(serial);
        serial_wall = timedRound(workload, p, options).wallSeconds;
    }

    const std::vector<Span> spans = g_tracer.spans();
    if (!spans_out.empty())
        writeSpans(spans_out, spans);

    std::vector<Metric> out;
    auto layer_time = [&](const std::string &metric,
                          const std::string &span) {
        const SpanTotal t = spanTotal(spans, span);
        out.push_back({metric, t.seconds, "s"});
        return t;
    };

    layer_time("matrix.permute_s", "matrix.permute");
    out.push_back({"matrix.permute_nnz",
                   static_cast<double>(g_tracer.counted("matrix.permute_nnz")),
                   "count"});

    const SpanTotal agg =
        layer_time("community.aggregate_s", "community.aggregate");
    out.push_back({"community.merges",
                   static_cast<double>(g_tracer.counted("community.merges")),
                   "count"});
    out.push_back(
        {"community.communities",
         static_cast<double>(g_tracer.counted("community.communities")),
         "count"});
    out.push_back({"community.aggregate_ns_per_nnz",
                   nsPer(agg.seconds, agg.work), "ns/nnz"});

    for (Technique t : kColdTechniques) {
        const std::string key = techniqueKey(t);
        const SpanTotal order =
            layer_time("reorder." + key + "_s", "reorder." + key);
        out.push_back({"reorder." + key + "_ns_per_nnz",
                       nsPer(order.seconds, order.work), "ns/nnz"});
    }

    const SpanTotal stream = layer_time("kernels.stream_s", "kernels.stream");
    out.push_back({"kernels.accesses",
                   static_cast<double>(g_tracer.counted("kernels.accesses")),
                   "count"});
    out.push_back({"kernels.stream_ns_per_access",
                   nsPer(stream.seconds, stream.work), "ns/access"});
    out.push_back(
        {"kernels.spgemm_flops",
         static_cast<double>(g_tracer.counted("kernels.spgemm_flops")),
         "count"});

    const SpanTotal lru =
        layer_time("cache.lru_replay_s", "cache.lru_replay");
    out.push_back({"cache.misses",
                   static_cast<double>(g_tracer.counted("cache.misses")),
                   "count"});
    out.push_back(
        {"cache.hit_rate",
         ratio(static_cast<double>(g_tracer.counted("cache.hits")),
               static_cast<double>(g_tracer.counted("cache.lru_accesses"))),
         "ratio"});
    out.push_back(
        {"cache.ns_per_access", nsPer(lru.seconds, lru.work), "ns/access"});
    const SpanTotal opt =
        layer_time("cache.opt_replay_s", "cache.opt_replay");
    out.push_back({"cache.opt_ns_per_access", nsPer(opt.seconds, opt.work),
                   "ns/access"});

    const SpanTotal sim = spanTotal(spans, "gpu.simulate");
    out.push_back({"gpu.simulate_s_p50", percentile(sim.samples, 0.5), "s"});
    out.push_back({"gpu.simulate_s_p90", percentile(sim.samples, 0.9), "s"});
    out.push_back({"gpu.simulate_samples",
                   static_cast<double>(sim.samples.size()), "count"});

    out.push_back({"par.pool_utilization", ratio(busy, busy + park),
                   "ratio"});
    out.push_back({"par.speedup", ratio(serial_wall, wall), "ratio"});
    out.push_back({"par.serial_wall_s", serial_wall, "s"});
    out.push_back({"trace.overhead_s", traced.wallSeconds - wall, "s"});

    // Where the timed phase goes: each layer's span time over the
    // summed cell spans of the traced round.
    const double cells = spanTotal(spans, "cell", Phase::Timed).seconds;
    for (const char *span :
         {"community.aggregate", "reorder.RABBIT", "reorder.RABBITPP",
          "reorder.GORDER", "reorder.DBG", "matrix.permute",
          "kernels.stream", "cache.lru_replay", "cache.opt_replay",
          "gpu.simulate"}) {
        out.push_back(
            {std::string("timed_share.") + span,
             ratio(spanTotal(spans, span, Phase::Timed).seconds, cells),
             "ratio"});
    }

    std::cout << "info norm_traffic_mean " << formatNumber(mean(traffic))
              << " wall_s " << formatNumber(wall) << " rounds "
              << rounds.size() << "\n";
    return out;
}

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--threads N] [--spans-out PATH] "
                 "[--inject-bad-permutation]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    Options options;
    double seconds = 10.0;
    bool trace = false;
    int threads = std::min(par::hardwareThreads(), 4);
    std::string spans_out;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    usage("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--workload")
                workload_name = value();
            else if (arg == "--seed")
                options.seed = std::stoull(value());
            else if (arg == "--seconds")
                seconds = std::stod(value());
            else if (arg == "--trace")
                trace = std::stoi(value()) != 0;
            else if (arg == "--threads")
                threads = std::stoi(value());
            else if (arg == "--spans-out")
                spans_out = value();
            else if (arg == "--inject-bad-permutation")
                options.injectBadPermutation = true;
            else
                usage("unknown argument " + arg);
        }
    } catch (const std::exception &) {
        usage("malformed argument");
    }
    if (threads < 1 || seconds <= 0.0)
        usage("--threads and --seconds must be positive");

    const std::vector<Workload> all = workloads();
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto &w) {
        return w.name == workload_name;
    });
    if (it == all.end())
        usage("unknown workload '" + workload_name + "'");

    std::cout << "info workload " << it->name << " seed " << options.seed
              << " threads " << threads << " nproc "
              << par::hardwareThreads() << " compiler \""
              << PERFBENCH_COMPILER << "\" build " << PERFBENCH_BUILD_TYPE
              << " trace " << (trace ? 1 : 0) << "\n";

    par::ThreadPool pool(threads);
    const par::ScopedPoolOverride use_pool(pool);
    const std::vector<Metric> metrics =
        trace ? runPerLayer(*it, options, seconds, pool, spans_out)
              : runEndToEnd(*it, options, seconds);
    printResult(metrics);
    return 0;
}
