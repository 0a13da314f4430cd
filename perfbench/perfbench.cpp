// Repository benchmark program: trains one GCN workload per process through
// the library's public calls and prints its metrics as one JSON line.
//
// perfbench/run.py owns the workload table (perfbench/map.json): it sets
// the workload's CAGNET_* environment, clears every other CAGNET_*
// variable, and passes the shape flags below. No mode is chosen in-process.
//
//   perfbench --algebra 2d --world 4 --graph social --n 32768 --degree 16
//             --lr 1.0 --epochs 120 --seed 1 [--trace 1 --trace-out F]
//
// The model and the rest of the graph shape are constants (kFeatures and
// below): every workload uses the same values.
//
// Flow of one run:
//   1. Generate the graph from --seed (not timed).
//   2. kRepeats times: DistProblem::prepare, make_dist_trainer on every
//      rank, kWarmup epochs (the set-up, timed as setup_s), then
//      --epochs / kRepeats timed epochs. The epoch count is fixed, so
//      losses and words repeat exactly for a seed; spreading it over fresh
//      worlds averages out host noise tied to one world. Rank 0 times each
//      train_epoch(); every rank reads last_epoch_stats() at each epoch
//      boundary.
//   3. Peak RSS is read, then one more set-up checks correctness: exact
//      modes compare its warm-up losses and gather_output() against
//      SerialTrainer; with CAGNET_SAMPLE on, the check is finite losses and
//      an accuracy floor. Every repeat must also end at bitwise the same
//      loss.
//   4. With --trace 1, spans (name, rank, start, end, parent, epoch) are
//      recorded around every call into the library — on every other timed
//      epoch, inside its timed window, so the untraced epochs in between
//      give trace.overhead — then the local kernels and collectives are
//      probed at the workload's own shapes, the spans are written as Chrome
//      trace-event JSON, and the per-layer metrics replace the end-to-end
//      ones.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/fault.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/dense/gemm.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/sparse/spmm_kernel.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros_since_start(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

// Parity tolerance of the serial-oracle tests (tests/dist_test.cpp).
constexpr Real kParityTol = 1e-8;
// Warm-up epochs per set-up: the first fills the epoch caches, the second
// runs on them.
constexpr int kWarmup = 2;
// Timed trainings per run, each a fresh set-up.
constexpr int kRepeats = 5;
// Input feature width: the f=128 of the paper's GCN runs.
constexpr Index kFeatures = 128;
// Hidden width of the paper's 3-layer GCN.
constexpr Index kHidden = 16;
// Classes; labels cycle over the communities, so chance accuracy is 1/8.
constexpr Index kClasses = 8;
// Vertices per planted community: large enough that a community's drawn
// edges stay local, small enough that every part holds many communities.
constexpr Index kCommunity = 512;
// Share of vertices given one random long-range edge: the cut a locality
// partitioner cannot avoid.
constexpr double kInterFrac = 0.01;
// Accuracy the sampled workload must reach: it settles near 0.82 against
// a chance level of 1/8, and no exact oracle exists for sampled epochs.
constexpr double kAccFloor = 0.5;

struct Shape {
  std::string algebra;
  int world = 1;
  std::string graph;  // "planted" or "social"
  Index n = 0;
  Index degree = 0;  // intra-community edges drawn per vertex
  double lr = 0;
  int per_repeat = 0;
  int epochs = 0;  // kRepeats * per_repeat
};

Shape parse_shape(const CliArgs& args) {
  Shape s;
  s.algebra = args.get("algebra", "");
  s.world = static_cast<int>(args.get_int("world", 1));
  s.graph = args.get("graph", "planted");
  s.n = args.get_int("n", 0);
  s.degree = args.get_int("degree", 0);
  s.lr = args.get_double("lr", 0.1);
  CAGNET_CHECK(find_algebra(s.algebra) != nullptr,
               "perfbench: unknown --algebra " + s.algebra);
  CAGNET_CHECK(s.graph == "planted" || s.graph == "social",
               "perfbench: --graph must be planted or social");
  CAGNET_CHECK(s.n >= kCommunity && s.degree > 0,
               "perfbench: bad graph shape");
  CAGNET_CHECK(s.world >= 1, "perfbench: need --world >= 1");
  s.per_repeat = std::max(
      1, static_cast<int>(args.get_int("epochs", 1)) / kRepeats);
  s.epochs = s.per_repeat * kRepeats;
  return s;
}

/// Whether the CAGNET_SAMPLE knob turns sampled training on, with the
/// spellings the library accepts. Sampled epochs have no serial oracle, so
/// this picks the correctness check.
bool sampling_on() {
  const char* v = std::getenv("CAGNET_SAMPLE");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "1" || s == "on" || s == "ON" || s == "true" || s == "TRUE";
}

/// The workload's input graph, a pure function of the shape and the seed.
///
/// "planted": contiguous communities whose drawn edges all stay inside,
/// plus one random long-range edge on a kInterFrac share of the
/// vertices — the cut a locality partitioner cannot avoid. (Random
/// inter-community edges at a share of the degree would touch most remote
/// vertices and leave no locality to exploit.)
/// "social": the same communities plus the generator's high-degree hubs,
/// with vertex ids scrambled, so blocks of ids have no locality and the
/// degrees are skewed (the Reddit-like regime of the paper's datasets).
///
/// Labels follow the communities and each vertex's features carry its
/// class as a +2 offset in one column, so a GCN learns them. A fifth of
/// the labels are redrawn at random, so the loss settles well above zero
/// instead of vanishing (a near-zero loss would make its relative spread
/// across seeds meaningless).
Graph make_graph(const Shape& s, std::uint64_t seed) {
  Rng rng(seed);
  const bool social = s.graph == "social";
  const Index communities = s.n / kCommunity;
  const auto n = static_cast<std::uint64_t>(s.n);
  Coo coo = social ? planted_partition(s.n, communities,
                                       static_cast<double>(s.degree), 0.0, rng)
                   : planted_partition(s.n, communities,
                                       static_cast<double>(s.degree), 0.0, rng,
                                       /*hub_fraction=*/0.0);
  const auto long_range =
      static_cast<Index>(kInterFrac * static_cast<double>(s.n));
  for (Index e = 0; e < long_range; ++e) {
    const auto u = static_cast<Index>(rng.next_below(n));
    const auto v = static_cast<Index>(rng.next_below(n));
    if (u != v) coo.add(u, v, Real{1});
  }
  coo.sort_and_combine();
  std::vector<Index> id(static_cast<std::size_t>(s.n));
  for (Index v = 0; v < s.n; ++v) id[static_cast<std::size_t>(v)] = v;
  if (social) {
    id = random_permutation(s.n, rng);
    coo.permute(id);
  }

  Graph g;
  g.name = "perfbench-" + s.graph;
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(s.n, kFeatures);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = kClasses;
  g.labels.resize(static_cast<std::size_t>(s.n));
  const Index comm_size = (s.n + communities - 1) / communities;
  const auto classes = static_cast<std::uint64_t>(kClasses);
  for (Index v = 0; v < s.n; ++v) {
    const Index label = (v / comm_size) % kClasses;
    const Index u = id[static_cast<std::size_t>(v)];
    g.features(u, label) += Real{2};
    g.labels[static_cast<std::size_t>(u)] =
        rng.next_below(5) == 0 ? static_cast<Index>(rng.next_below(classes))
                               : label;
  }
  return g;
}

// ---- Spans -------------------------------------------------------------

struct Span {
  const char* name = "";
  int tid = 0;  // rank, or the world size for the main thread
  int parent = -1;
  int epoch = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store: one vector per thread (each rank thread writes
/// only its own), written out as Chrome trace-event JSON at exit. When
/// disabled, open() returns -1 and nothing is recorded.
class Tracer {
 public:
  static constexpr int kPerThread = 1 << 20;

  Tracer(bool enabled, int threads)
      : enabled_(enabled), spans_(static_cast<std::size_t>(threads)) {
    if (enabled_) {
      for (auto& v : spans_) v.reserve(4096);
    }
  }

  int open(int tid, const char* name, int parent, int epoch = -1) {
    if (!enabled_) return -1;
    auto& mine = spans_[static_cast<std::size_t>(tid)];
    CAGNET_CHECK(mine.size() < static_cast<std::size_t>(kPerThread),
                 "perfbench: span store full");
    mine.push_back({name, tid, parent, epoch, Clock::now(), {}});
    return tid * kPerThread + static_cast<int>(mine.size()) - 1;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id / kPerThread)]
          [static_cast<std::size_t>(id % kPerThread)]
              .end = Clock::now();
  }

  const std::vector<std::vector<Span>>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> spans_;
};

// ---- Per-epoch counters ----------------------------------------------------

/// One rank's reading of last_epoch_stats() at an epoch boundary, plus the
/// epoch's host seconds on that rank.
struct EpochSample {
  double epoch_s = 0;
  Clock::time_point end;
  std::array<double, Profiler::kNumPhases> phase = {};
  std::array<double, CostMeter::kNumCategories> words = {};
  std::array<double, CostMeter::kNumCategories> latency = {};
  double total_words = 0;
  double total_latency = 0;
  double overlap_saved = 0;
  double overlap_serialized = 0;
  double spmm_flops = 0;
  double gemm_flops = 0;
  double modeled_s = 0;
};

EpochSample sample_epoch(const EpochStats& s, double epoch_s,
                         Clock::time_point end) {
  EpochSample out;
  out.epoch_s = epoch_s;
  out.end = end;
  for (std::size_t p = 0; p < Profiler::kNumPhases; ++p) {
    out.phase[p] = s.profiler.seconds(static_cast<Phase>(p));
  }
  for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
    out.words[c] = s.comm.words(static_cast<CommCategory>(c));
    out.latency[c] = s.comm.latency_units(static_cast<CommCategory>(c));
  }
  out.total_words = s.comm.total_words();
  out.total_latency = s.comm.total_latency_units();
  out.overlap_saved = s.comm.overlap_saved_seconds();
  out.overlap_serialized = s.comm.overlap_serialized_seconds();
  out.spmm_flops = s.work.spmm_flops();
  out.gemm_flops = s.work.gemm_flops();
  out.modeled_s = s.modeled_seconds_overlap(MachineModel::summit());
  return out;
}

/// Profiler phases with a per-layer metric. A phase left out (cpack, timed
/// only under CAGNET_COMPRESS, which no workload sets) is reported in the
/// result's info as unmetered seconds, which --self-check requires to be 0.
constexpr std::array<std::pair<Phase, const char*>, 6> kPhaseMetrics = {{
    {Phase::kSpmm, "sparse.spmm_s"},
    {Phase::kMisc, "dense.misc_s"},
    {Phase::kDenseComm, "comm.dcomm_s"},
    {Phase::kSparseComm, "comm.scomm_s"},
    {Phase::kTranspose, "comm.trpose_s"},
    {Phase::kHaloPack, "core.hpack_s"},
}};

double phase_sum(const EpochSample& s) {
  double sum = 0;
  for (double v : s.phase) sum += v;
  return sum;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in (0, 1]) of one repeat's epoch times.
double percentile(std::span<const double> times, double q) {
  std::vector<double> v(times.begin(), times.end());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The 90th percentile of each repeat's epoch times, median over the
/// repeats. A burst of host load that slows a tenth of one repeat's epochs
/// moves one repeat's value, not the reported tail; pooled over all epochs
/// such bursts flipped a run's p90 between ~1.05x and ~2x the median on a
/// shared 4-vCPU VM. Even so it spread 0.23-0.42 (interquartile range over
/// median) across ten runs there, so it is a traced per-layer metric, not
/// an end-to-end one.
double repeat_median_p90(const std::vector<double>& epoch_s) {
  const auto repeats = static_cast<std::size_t>(kRepeats);
  const std::size_t per = epoch_s.size() / repeats;
  std::vector<double> p90s;
  for (std::size_t r = 0; r < repeats; ++r) {
    p90s.push_back(percentile(
        std::span<const double>(epoch_s).subspan(r * per, per), 0.9));
  }
  return median(std::move(p90s));
}

/// Mean over epochs of the max over ranks of one per-sample quantity.
double mean_of_rank_max(const std::vector<std::vector<EpochSample>>& samples,
                        const std::function<double(const EpochSample&)>& get) {
  const std::size_t epochs = samples.front().size();
  double sum = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    double best = 0;
    for (const auto& rank : samples) best = std::max(best, get(rank[e]));
    sum += best;
  }
  return sum / static_cast<double>(epochs);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Probes (traced run only) ---------------------------------------------

struct ProbeResults {
  double kernel_gflops = 0;
  double kernel_speedup = 0;
  double gemm_gflops = 0;
  double bcast_us = 0;
  double ibcast_us = 0;
  double alltoallv_us = 0;
  double ialltoallv_us = 0;
  double allreduce_us = 0;
  double barrier_us = 0;
};

/// Seconds taken by one call of `fn`, recorded as one span.
double span_call(Tracer& tracer, int tid, const char* name, int parent,
                 const std::function<void()>& fn) {
  const int id = tracer.open(tid, name, parent);
  const auto t0 = Clock::now();
  fn();
  const double seconds = seconds_since(t0);
  tracer.close(id);
  return seconds;
}

/// Probe the local kernels and the collectives at the workload's shapes, in
/// a world of the workload's size (so rank 0 runs at its share of the
/// thread budget). `chunk_words` is the per-destination alltoallv size.
ProbeResults run_probes(const Shape& s, const DistProblem& problem,
                        Index chunk_words, Tracer& tracer, int parent) {
  ProbeResults out;
  const auto [lo, hi] = problem.row_range(s.world, 0);
  const Index rows = hi - lo;
  const Csr stripe = problem.at.block(lo, hi, 0, problem.at.cols());
  const Matrix& x = problem.graph->features;
  run_world(s.world, [&](Comm& world) {
    const int r = world.rank();
    if (r == 0) {
      Matrix y(rows, kFeatures);
      const auto spmm = [&](int threads) {
        spmm_csr_kernel(rows, stripe.row_ptr().data(), stripe.col_idx().data(),
                        stripe.values().data(), x.data(), kFeatures, y.data(),
                        /*accumulate=*/false, threads);
      };
      const double flops = 2.0 * static_cast<double>(stripe.nnz()) *
                           static_cast<double>(kFeatures);
      // Alternate the two thread counts so host drift hits both alike.
      std::vector<double> t_auto, t_one;
      for (int i = 0; i < 7; ++i) {
        t_auto.push_back(span_call(tracer, r, "spmm_csr_kernel (budget)",
                                   parent, [&] { spmm(0); }));
        t_one.push_back(span_call(tracer, r, "spmm_csr_kernel (1 thread)",
                                  parent, [&] { spmm(1); }));
      }
      out.kernel_gflops = flops / median(t_auto) * 1e-9;
      out.kernel_speedup = median(t_one) / median(t_auto);

      // Layer 1's T*W (forward) and H^T*U (weight gradient) on the stripe.
      Rng rng(99);
      Matrix t(rows, kFeatures), w(kFeatures, kHidden), z(rows, kHidden);
      Matrix u(rows, kHidden), grad(kFeatures, kHidden);
      t.fill_uniform(rng, -1, 1);
      w.fill_uniform(rng, -1, 1);
      u.fill_uniform(rng, -1, 1);
      std::vector<double> t_gemm;
      for (int i = 0; i < 9; ++i) {
        t_gemm.push_back(span_call(tracer, r, "gemm (T*W, H^T*U)", parent, [&] {
          gemm(Trans::kNo, Trans::kNo, 1, t, w, 0, z);
          gemm(Trans::kYes, Trans::kNo, 1, t, u, 0, grad);
        }));
      }
      out.gemm_gflops = 4.0 * static_cast<double>(rows) *
                        static_cast<double>(kFeatures) *
                        static_cast<double>(kHidden) / median(t_gemm) * 1e-9;
    }
    world.barrier();

    const int p = world.size();
    // Microseconds per call: `reps` calls between barriers, median of 3.
    const auto per_call_us = [&](const char* name, int reps,
                                 const std::function<void()>& call) {
      const int id = tracer.open(r, name, parent);
      std::vector<double> trials;
      for (int trial = 0; trial < 3; ++trial) {
        world.barrier();
        const auto t0 = Clock::now();
        for (int i = 0; i < reps; ++i) call();
        world.barrier();
        trials.push_back(seconds_since(t0) / reps * 1e6);
      }
      tracer.close(id);
      return median(std::move(trials));
    };

    // One n/P x f panel: Algorithm 1's stage broadcast, and SUMMA's at P=4.
    const auto panel = static_cast<std::size_t>(rows * kFeatures);
    std::vector<Real> src(r == 0 ? panel : 0, Real{1});
    std::vector<Real> dst(r == 0 ? 0 : panel);
    const std::span<const Real> src_view(src);
    const std::span<Real> dst_view(dst);
    const double bcast = per_call_us("Comm::broadcast_from", 20, [&] {
      world.broadcast_from(src_view, dst_view, 0, CommCategory::kDense);
    });
    const double ibcast = per_call_us("Comm::ibroadcast_from+wait", 20, [&] {
      PendingOp op =
          world.ibroadcast_from(src_view, dst_view, 0, CommCategory::kDense);
      op.wait();
    });
    world.quiesce();

    const auto chunk = static_cast<std::size_t>(chunk_words);
    std::vector<Real> send(chunk * static_cast<std::size_t>(p), Real{1});
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1);
    for (std::size_t d = 0; d < offsets.size(); ++d) offsets[d] = d * chunk;
    const std::span<const Real> send_view(send);
    const std::span<const std::size_t> offsets_view(offsets);
    Gathered<Real> recv;
    const double a2a = per_call_us("Comm::alltoallv_into", 50, [&] {
      world.alltoallv_into(send_view, offsets_view, recv, CommCategory::kHalo);
    });
    const double ia2a = per_call_us("Comm::ialltoallv_into+wait", 50, [&] {
      PendingOp op = world.ialltoallv_into(send_view, offsets_view, recv,
                                           CommCategory::kHalo);
      op.wait();
    });
    world.quiesce();

    // Layer 1's weight-gradient all-reduce (f x hidden).
    std::vector<Real> grad(static_cast<std::size_t>(kFeatures * kHidden));
    const double allreduce = per_call_us("Comm::allreduce_sum", 200, [&] {
      std::fill(grad.begin(), grad.end(), Real{1});
      world.allreduce_sum(std::span<Real>(grad), CommCategory::kDense);
    });
    const double barrier =
        per_call_us("Comm::barrier", 500, [&] { world.barrier(); });
    if (r == 0) {
      out.bcast_us = bcast;
      out.ibcast_us = ibcast;
      out.alltoallv_us = a2a;
      out.ialltoallv_us = ia2a;
      out.allreduce_us = allreduce;
      out.barrier_us = barrier;
    }
  });
  return out;
}

// ---- Output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void write_trace(const std::string& path, const Tracer& tracer,
                 const std::vector<std::vector<EpochSample>>& samples,
                 int world) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  CAGNET_CHECK(out != nullptr, "perfbench: cannot write " + path);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (int t = 0; t <= world; ++t) {
    const std::string label =
        t == world ? std::string("main") : "rank " + std::to_string(t);
    std::fprintf(out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 t, label.c_str());
  }
  for (const auto& thread : tracer.spans()) {
    for (std::size_t i = 0; i < thread.size(); ++i) {
      const Span& s = thread[i];
      const int id = s.tid * Tracer::kPerThread + static_cast<int>(i);
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%d,\"parent\":%d,\"rank\":%d,"
                   "\"epoch\":%d}}",
                   s.name, s.tid, micros_since_start(s.start),
                   micros_since_start(s.end) - micros_since_start(s.start),
                   id, s.parent, s.tid == world ? -1 : s.tid, s.epoch);
    }
  }
  // Counters read at every timed epoch boundary, one track per rank.
  for (std::size_t r = 0; r < samples.size(); ++r) {
    for (const EpochSample& e : samples[r]) {
      std::fprintf(
          out,
          ",\n{\"name\":\"rank %zu counters\",\"ph\":\"C\",\"pid\":0,"
          "\"ts\":%.3f,\"args\":{\"words_dense\":%.1f,\"words_sparse\":%.1f,"
          "\"words_transpose\":%.1f,\"words_halo\":%.1f,"
          "\"words_control\":%.1f,\"latency_units\":%.1f,"
          "\"spmm_s\":%.6f,\"misc_s\":%.6f,\"dcomm_s\":%.6f}}",
          r, micros_since_start(e.end),
          e.words[static_cast<std::size_t>(CommCategory::kDense)],
          e.words[static_cast<std::size_t>(CommCategory::kSparse)],
          e.words[static_cast<std::size_t>(CommCategory::kTranspose)],
          e.words[static_cast<std::size_t>(CommCategory::kHalo)],
          e.words[static_cast<std::size_t>(CommCategory::kControl)],
          e.total_latency,
          e.phase[static_cast<std::size_t>(Phase::kSpmm)],
          e.phase[static_cast<std::size_t>(Phase::kMisc)],
          e.phase[static_cast<std::size_t>(Phase::kDenseComm)]);
    }
  }
  std::fprintf(out, "\n]}\n");
  CAGNET_CHECK(std::fclose(out) == 0, "perfbench: cannot write " + path);
}

/// The result line; "info" holds the effective world size, thread budget
/// and partitioner that run.py prints beside the metrics, plus the `extra`
/// numbers its self-check reads.
void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics, int world,
                  const std::vector<std::pair<const char*, double>>& extra) {
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,"
              "\"info\":{\"world\":%d,\"thread_budget\":%d,"
              "\"partitioner\":\"%s\"",
              correct ? "true" : "false", attempted, failed, world,
              thread_budget(), default_partitioner_name().c_str());
  for (const auto& [key, value] : extra) {
    std::printf(",\"%s\":%.17g", key, value);
  }
  std::printf("},\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Shape s = parse_shape(args);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string trace_out = args.get("trace-out", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int p = s.world;
  const bool sampled = sampling_on();

  const Graph graph = make_graph(s, seed);
  GnnConfig config = GnnConfig::three_layer(kFeatures, kClasses, kHidden);
  config.learning_rate = static_cast<Real>(s.lr);

  Tracer tracer(trace, p + 1);
  const int main_tid = p;
  const int root_span = tracer.open(main_tid, "perfbench", -1);

  // Per set-up (rank 0 / max over ranks).
  std::vector<double> setup_s, prepare_s, construct_s, warmup_s;
  // Timed epochs of all repeats: rank 0's wall seconds, every rank's
  // counters.
  std::vector<double> epoch_s(static_cast<std::size_t>(s.epochs), 0.0);
  std::vector<std::vector<EpochSample>> samples(
      static_cast<std::size_t>(p),
      std::vector<EpochSample>(static_cast<std::size_t>(s.epochs)));
  std::vector<EpochResult> finals;  // per repeat, after its last epoch
  std::vector<Real> check_losses;
  Matrix check_output;
  double rss_mb = 0;
  long epochs_done = 0;
  long nonfinite = 0;
  long aborts = 0;
  bool run_ok = true;
  DistProblem problem;

  // Repeats 0..kRepeats-1 each train warm-up + per_repeat timed epochs in a
  // fresh world, so host noise tied to one world's placement averages out;
  // the final set-up checks correctness.
  for (int rep = 0; rep <= kRepeats; ++rep) {
    const bool check = rep == kRepeats;
    if (check) rss_mb = peak_rss_mb();
    const int rep_span = tracer.open(
        main_tid, check ? "setup+check" : "setup+timed epochs", root_span);
    const auto t0 = Clock::now();
    const int prep_span =
        tracer.open(main_tid, "DistProblem::prepare", rep_span);
    problem = DistProblem::prepare(graph, p, default_partitioner_name());
    tracer.close(prep_span);
    prepare_s.push_back(seconds_since(t0));

    std::vector<double> construct(static_cast<std::size_t>(p), 0.0);
    double setup = 0;
    double first_warm = 0;
    std::vector<Real> warm_losses;
    EpochResult last{};
    try {
      run_world(p, [&](Comm& world) {
        const int r = world.rank();
        const auto c0 = Clock::now();
        int id = tracer.open(r, "make_dist_trainer", rep_span);
        auto trainer = make_dist_trainer(s.algebra, problem, config, world);
        tracer.close(id);
        construct[static_cast<std::size_t>(r)] = seconds_since(c0);
        for (int w = 0; w < kWarmup; ++w) {
          id = tracer.open(r, "train_epoch (warm-up)", rep_span, w);
          const auto e0 = Clock::now();
          const EpochResult res = trainer->train_epoch();
          tracer.close(id);
          if (r == 0) {
            if (w == 0) first_warm = seconds_since(e0);
            warm_losses.push_back(res.loss);
          }
        }
        if (r == 0) setup = seconds_since(t0);
        if (check) {
          if (!sampled) {
            id = tracer.open(r, "gather_output", rep_span);
            Matrix out = trainer->gather_output();
            tracer.close(id);
            if (r == 0) check_output = std::move(out);
          }
          return;
        }
        auto& mine = samples[static_cast<std::size_t>(r)];
        for (int k = 0; k < s.per_repeat; ++k) {
          const int e = rep * s.per_repeat + k;
          // Every other epoch is traced, with its span's open and close
          // inside the timed window; the rest give trace.overhead.
          const auto e0 = Clock::now();
          id = e % 2 == 0 ? tracer.open(r, "train_epoch", rep_span, e) : -1;
          const EpochResult res = trainer->train_epoch();
          tracer.close(id);
          const auto e1 = Clock::now();
          const double dt = std::chrono::duration<double>(e1 - e0).count();
          mine[static_cast<std::size_t>(e)] =
              sample_epoch(trainer->last_epoch_stats(), dt, e1);
          if (r == 0) {
            epoch_s[static_cast<std::size_t>(e)] = dt;
            last = res;
            ++epochs_done;
            if (!std::isfinite(res.loss)) ++nonfinite;
          }
        }
      });
    } catch (const CommAborted& e) {
      std::fprintf(stderr, "perfbench: world aborted: %s\n", e.what());
      ++aborts;
      run_ok = false;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
      run_ok = false;
    }
    tracer.close(rep_span);
    setup_s.push_back(setup);
    construct_s.push_back(*std::max_element(construct.begin(), construct.end()));
    warmup_s.push_back(first_warm);
    for (Real loss : warm_losses) nonfinite += std::isfinite(loss) ? 0 : 1;
    if (check) {
      check_losses = std::move(warm_losses);
    } else {
      finals.push_back(last);
    }
  }

  // Correctness, outside every timed region. Every repeat trained the same
  // model from the same weights, so all must end bitwise equal.
  bool check_ok = run_ok && nonfinite == 0 &&
                  check_losses.size() == static_cast<std::size_t>(kWarmup);
  for (const EpochResult& f : finals) {
    if (f.loss != finals.front().loss || f.accuracy != finals.front().accuracy) {
      std::fprintf(stderr, "perfbench: repeats ended at different losses\n");
      check_ok = false;
    }
  }
  const EpochResult last = finals.empty() ? EpochResult{} : finals.back();
  if (check_ok && !sampled) {
    const int id = tracer.open(main_tid, "SerialTrainer oracle", root_span);
    SerialTrainer serial(graph, config);
    for (int e = 0; e < kWarmup; ++e) {
      const Real loss = serial.train_epoch().loss;
      if (std::fabs(loss - check_losses[static_cast<std::size_t>(e)]) >
          kParityTol) {
        std::fprintf(stderr, "perfbench: epoch %d loss %.17g != serial %.17g\n",
                     e, check_losses[static_cast<std::size_t>(e)], loss);
        check_ok = false;
      }
    }
    const Matrix& expected = serial.activations().back();
    if (check_output.rows() != expected.rows() ||
        check_output.cols() != expected.cols() ||
        Matrix::max_abs_diff(check_output, expected) > kParityTol) {
      std::fprintf(stderr, "perfbench: gather_output differs from serial\n");
      check_ok = false;
    }
    tracer.close(id);
  } else if (check_ok && last.accuracy < kAccFloor) {
    std::fprintf(stderr, "perfbench: final accuracy %.4f below floor %.2f\n",
                 static_cast<double>(last.accuracy), kAccFloor);
    check_ok = false;
  }
  const bool correct = check_ok && epochs_done == s.epochs;

  // Epochs attempted: every set-up's warm-up plus the timed ones. A failed
  // check fails the warm-up prefix it compared.
  const long attempted =
      static_cast<long>(kRepeats + 1) * kWarmup + s.epochs;
  const long failed =
      std::min(attempted, nonfinite + (s.epochs - epochs_done) +
                              (check_ok ? 0 : kWarmup));

  std::vector<Metric> metrics;
  std::vector<std::pair<const char*, double>> extra;
  if (!trace) {
    metrics = {
        {"epoch_s_p50", median(epoch_s), "s"},
        {"setup_s", median(setup_s), "s"},
        {"modeled_epoch_s",
         mean_of_rank_max(samples,
                          [](const EpochSample& e) { return e.modeled_s; }),
         "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"final_loss", static_cast<double>(last.loss), "nats"},
        {"final_acc", static_cast<double>(last.accuracy), "fraction"},
    };
  } else {
    // Per-destination alltoallv size: the workload's mean halo chunk per
    // source and call; one word (pure call overhead) when it has no halo
    // traffic.
    const auto cat = [](CommCategory c) { return static_cast<std::size_t>(c); };
    const double halo_words = mean_of_rank_max(samples, [&](const EpochSample& e) {
      return e.words[cat(CommCategory::kHalo)];
    });
    const double halo_calls =
        mean_of_rank_max(samples, [&](const EpochSample& e) {
          return e.latency[cat(CommCategory::kHalo)];
        }) / std::max(p - 1, 1);
    const Index chunk =
        halo_calls > 0 && p > 1
            ? std::max<Index>(
                  static_cast<Index>(halo_words / halo_calls / (p - 1)), 1)
            : 1;
    const int probe_span = tracer.open(main_tid, "probes", root_span);
    // A world that aborted leaves the probes unmeasured (zero); the
    // counters still show how far the run got.
    const ProbeResults probes =
        run_ok ? run_probes(s, problem, chunk, tracer, probe_span)
               : ProbeResults{};
    tracer.close(probe_span);

    const auto& rank0 = samples.front();
    const auto n_ep = static_cast<double>(rank0.size());
    const auto rank0_mean = [&](const std::function<double(const EpochSample&)>& get) {
      double sum = 0;
      for (const EpochSample& e : rank0) sum += get(e);
      return sum / n_ep;
    };
    const auto phase_mean = [&](Phase ph) {
      return rank0_mean([&](const EpochSample& e) {
        return e.phase[static_cast<std::size_t>(ph)];
      });
    };
    const auto words_mean = [&](CommCategory c) {
      return mean_of_rank_max(
          samples, [&](const EpochSample& e) { return e.words[cat(c)]; });
    };
    std::vector<double> traced, untraced;
    for (std::size_t e = 0; e < epoch_s.size(); ++e) {
      (e % 2 == 0 ? traced : untraced).push_back(epoch_s[e]);
    }
    double rank_max = 0, rank_sum = 0;
    for (const auto& rank : samples) {
      double sum = 0;
      for (const EpochSample& e : rank) sum += phase_sum(e);
      rank_max = std::max(rank_max, sum);
      rank_sum += sum;
    }
    double saved = 0, serialized = 0;
    for (const auto& rank : samples) {
      for (const EpochSample& e : rank) {
        saved += e.overlap_saved;
        serialized += e.overlap_serialized;
      }
    }
    metrics = {
        {"graph.prepare_s", median(prepare_s), "s"},
        {"graph.max_remote_rows",
         static_cast<double>(problem.edgecut.max_remote_rows_per_part), "rows"},
        {"sparse.spmm_gflop",
         mean_of_rank_max(samples,
                          [](const EpochSample& e) { return e.spmm_flops; }) *
             1e-9,
         "GFlop"},
        {"sparse.kernel_gflops", probes.kernel_gflops, "GFlop/s"},
        {"dense.gemm_gflop",
         mean_of_rank_max(samples,
                          [](const EpochSample& e) { return e.gemm_flops; }) *
             1e-9,
         "GFlop"},
        {"dense.gemm_gflops", probes.gemm_gflops, "GFlop/s"},
        {"comm.words.dense", words_mean(CommCategory::kDense), "words"},
        {"comm.words.sparse", words_mean(CommCategory::kSparse), "words"},
        {"comm.words.transpose", words_mean(CommCategory::kTranspose), "words"},
        {"comm.words.halo", words_mean(CommCategory::kHalo), "words"},
        {"comm.words.control", words_mean(CommCategory::kControl), "words"},
        {"comm.words_per_epoch",
         mean_of_rank_max(samples,
                          [](const EpochSample& e) { return e.total_words; }),
         "words"},
        {"comm.latency_units",
         mean_of_rank_max(samples,
                          [](const EpochSample& e) { return e.total_latency; }),
         "count"},
        {"comm.overlap_hidden_frac",
         serialized > 0 ? saved / serialized : 0.0, "ratio"},
        {"comm.bcast_us", probes.bcast_us, "us"},
        {"comm.ibcast_us", probes.ibcast_us, "us"},
        {"comm.alltoallv_us", probes.alltoallv_us, "us"},
        {"comm.ialltoallv_us", probes.ialltoallv_us, "us"},
        {"comm.allreduce_us", probes.allreduce_us, "us"},
        {"comm.barrier_us", probes.barrier_us, "us"},
        {"comm.aborts", static_cast<double>(aborts), "count"},
        {"core.construct_s", median(construct_s), "s"},
        {"core.warmup_s", median(warmup_s), "s"},
        {"core.epoch_s", rank0_mean([](const EpochSample& e) { return e.epoch_s; }),
         "s"},
        {"core.epoch_s_p90", repeat_median_p90(epoch_s), "s"},
        {"core.unaccounted_s",
         rank0_mean([](const EpochSample& e) { return e.epoch_s - phase_sum(e); }),
         "s"},
        {"core.rank_skew", rank_sum > 0 ? rank_max / (rank_sum / p) : 1.0,
         "ratio"},
        {"util.kernel_speedup", probes.kernel_speedup, "ratio"},
        {"trace.overhead", median(traced) / median(untraced) - 1.0, "ratio"},
    };
    for (const auto& [phase, name] : kPhaseMetrics) {
      metrics.push_back({name, phase_mean(phase), "s"});
    }
    // For --self-check: phase seconds no metric shows, and the smallest
    // epoch span minus phase sum (negative if phases overlapped).
    double unmetered = 0;
    for (std::size_t ph = 0; ph < Profiler::kNumPhases; ++ph) {
      const auto phase = static_cast<Phase>(ph);
      if (std::none_of(kPhaseMetrics.begin(), kPhaseMetrics.end(),
                       [&](const auto& m) { return m.first == phase; })) {
        unmetered += phase_mean(phase);
      }
    }
    double min_unaccounted = rank0.front().epoch_s - phase_sum(rank0.front());
    for (const EpochSample& e : rank0) {
      min_unaccounted = std::min(min_unaccounted, e.epoch_s - phase_sum(e));
    }
    extra = {
        {"unmetered_phase_s", unmetered},
        {"min_unaccounted_s", min_unaccounted},
    };
  }
  tracer.close(root_span);
  if (trace && !trace_out.empty()) write_trace(trace_out, tracer, samples, p);
  print_result(correct, attempted, failed, metrics, p, extra);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cagnet

int main(int argc, char** argv) {
  try {
    return cagnet::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
