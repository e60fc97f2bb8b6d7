// End-to-end benchmark of kali: the simulator's host cost (wall seconds,
// set-up seconds, peak memory) and the modeled machine's time (makespan,
// messages, wire bytes) on three workloads, with per-layer spans in a
// separate traced run.  Drives the library through its public API only.
//
//   kali_perfbench --workload <halo_many_ranks|fft_transpose|paper_solvers>
//                  --seed <n> --seconds <s> --trace <0|1> [--workers <w>]
//   kali_perfbench --selftest
//
// A run builds its inputs from --seed, times whole rounds of the
// workload's operations until --seconds have passed, checks every output
// against an independent computation, and prints one JSON object as its
// last line (see README.md for every metric).  --selftest runs each
// workload at a tiny size and shows that every output check accepts the
// true output and rejects a perturbed copy.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kernels/fft2.hpp"
#include "machine/collectives.hpp"
#include "machine/context.hpp"
#include "metrics/predictor.hpp"
#include "runtime/doall.hpp"
#include "runtime/redistribute.hpp"
#include "solvers/adi.hpp"
#include "solvers/jacobi.hpp"
#include "solvers/mg3.hpp"
#include "solvers/sparse.hpp"
#include "support/rng.hpp"

namespace {

using namespace kali;

// ---------------------------------------------------------------------------
// Host clock and memory
// ---------------------------------------------------------------------------

using HostClock = std::chrono::steady_clock;
const HostClock::time_point g_process_start = HostClock::now();

/// Host seconds since the process started.
double host_now() {
  return std::chrono::duration<double>(HostClock::now() - g_process_start)
      .count();
}

/// Peak resident set of this process so far, in MB.  Read from VmHWM,
/// which starts afresh at exec (getrusage's ru_maxrss would carry the
/// launching process's peak over).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

/// The scalar part of a rank's ProcCounters plus its clock.
struct Snap {
  double clock = 0.0;
  double compute = 0.0;
  double overhead = 0.0;
  double wait = 0.0;
  double link_wait = 0.0;
  double edge_wait = 0.0;
  double hidden = 0.0;
  double window = 0.0;
  double flops = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;

  static Snap of(Context& ctx) {
    const ProcCounters& c = ctx.proc().counters();
    return {ctx.clock(),         c.compute_time,   c.overhead_time,
            c.wait_time,         c.link_wait_time, c.edge_wait_time,
            c.overlap_hidden_time, c.overlap_wire_time, c.flops,
            c.msgs_sent,         c.bytes_sent};
  }
  Snap operator-(const Snap& o) const {
    return {clock - o.clock,         compute - o.compute,
            overhead - o.overhead,   wait - o.wait,
            link_wait - o.link_wait, edge_wait - o.edge_wait,
            hidden - o.hidden,       window - o.window,
            flops - o.flops,         msgs - o.msgs,
            bytes - o.bytes};
  }
  Snap& operator+=(const Snap& o) {
    clock += o.clock;
    compute += o.compute;
    overhead += o.overhead;
    wait += o.wait;
    link_wait += o.link_wait;
    edge_wait += o.edge_wait;
    hidden += o.hidden;
    window += o.window;
    flops += o.flops;
    msgs += o.msgs;
    bytes += o.bytes;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

enum SpanId : int {
  kAlloc,
  kInspector,
  kHalo,
  kDoall,
  kRedistribute,
  kFftLines,
  kJacobi,
  kMg3,
  kAdi,
  kCg,
  kCollectives,
  kSched,
  kBench,
  kNumSpans
};

constexpr std::array<const char*, kNumSpans> kSpanNames = {
    "runtime.alloc",       "runtime.inspector",  "runtime.halo",
    "runtime.doall",       "runtime.redistribute", "kernels.fft_lines",
    "solvers.jacobi_kf1",  "solvers.mg3_cycle",  "solvers.adi_iterate",
    "solvers.sparse_cg",   "machine.collectives", "machine.sched",
    "bench.other"};

/// Per-layer spans around the benchmark's own calls into the library.
///
/// Every span is collective (all ranks run the same sequence of them) and
/// is bracketed by a host-side quiesce of the whole machine
/// (compact_edge_ledgers: every fiber parks once, no message, no modeled
/// cost), so the host seconds between two brackets are the whole machine's
/// host cost of that one span.  Modeled time and counters are recorded per
/// rank as deltas of ctx.clock() and ProcCounters across the span.
class Tracer {
 public:
  explicit Tracer(int nprocs)
      : per_rank_(static_cast<std::size_t>(nprocs)),
        bracket_seq_(static_cast<std::size_t>(nprocs), 0) {}

  template <class Fn>
  void span(Context& ctx, SpanId id, Fn&& fn) {
    const Snap before = Snap::of(ctx);
    fn();
    const Snap d = Snap::of(ctx) - before;
    Acc& a = per_rank_[static_cast<std::size_t>(ctx.rank())][id];
    a.delta += d;
    ++a.calls;
    bracket(ctx, id);
  }

  /// Opening bracket: call once on every rank before the first span.
  void open(Context& ctx) { bracket(ctx, kNumSpans); }

  struct Totals {
    double host_s = 0.0;     ///< machine-wide host seconds
    double modeled_s = 0.0;  ///< slowest rank's modeled seconds inside
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t calls = 0;  ///< rank 0's call count
    Snap sum;                 ///< counter deltas summed over ranks
  };

  [[nodiscard]] Totals totals(SpanId id) const {
    Totals t;
    t.host_s = host_[id];
    for (const auto& r : per_rank_) {
      const Acc& a = r[id];
      t.modeled_s = std::max(t.modeled_s, a.delta.clock);
      t.msgs += a.delta.msgs;
      t.bytes += a.delta.bytes;
      t.sum += a.delta;
    }
    t.calls = per_rank_.front()[id].calls;
    return t;
  }

  [[nodiscard]] std::uint64_t total_msgs() const {
    std::uint64_t n = 0;
    for (int s = 0; s < kNumSpans; ++s) {
      n += totals(static_cast<SpanId>(s)).msgs;
    }
    return n;
  }

 private:
  struct Acc {
    Snap delta;
    std::uint64_t calls = 0;
  };

  /// Quiesce the machine, then let the first rank out charge the host time
  /// since the previous bracket to span `id` (the one just finished).
  void bracket(Context& ctx, SpanId id) {
    compact_edge_ledgers(ctx);
    const double now = host_now();
    const std::uint64_t seq = ++bracket_seq_[static_cast<std::size_t>(ctx.rank())];
    std::lock_guard<std::mutex> lk(mu_);
    if (seq > released_) {
      if (id != kNumSpans) {
        host_[id] += now - last_release_;
      }
      last_release_ = now;
      released_ = seq;
    }
  }

  std::vector<std::array<Acc, kNumSpans>> per_rank_;
  std::vector<std::uint64_t> bracket_seq_;
  std::mutex mu_;
  std::uint64_t released_ = 0;
  double last_release_ = 0.0;
  std::array<double, kNumSpans> host_{};
};

/// Runs `fn` inside span `id` when tracing, plainly otherwise.
template <class Fn>
void traced(Tracer* t, Context& ctx, SpanId id, Fn&& fn) {
  if (t != nullptr) {
    t->span(ctx, id, std::forward<Fn>(fn));
  } else {
    fn();
  }
}

// ---------------------------------------------------------------------------
// Timed rounds
// ---------------------------------------------------------------------------

/// Drives the timed phase of one Machine::run: whole rounds of the same
/// operations until the deadline, with a modeled-time barrier
/// (sync_clocks) between rounds.  Rank 0 decides when to stop and
/// publishes the last round's number before entering the barrier; every
/// rank reads it after the barrier, which no rank leaves before rank 0
/// entered it, so all ranks agree on the round count without a message.
class Rounds {
 public:
  Rounds(int nprocs, double seconds, Tracer* tracer)
      : seconds_(seconds), tracer_(tracer), rec_(static_cast<std::size_t>(nprocs)) {}

  /// Run `round` repeatedly on this rank; `all` must span the machine.
  template <class Fn>
  int run(Context& ctx, const Group& all, Fn&& round) {
    Rec& me = rec_[static_cast<std::size_t>(ctx.rank())];
    sync(ctx, all, kBench);  // the opening barrier is the benchmark's own
    if (ctx.rank() == 0) {
      setup_end_ = host_now();
      deadline_ = setup_end_ + seconds_;
      round_marks_.push_back(setup_end_);
    }
    for (int r = 0;; ++r) {
      const Snap start = Snap::of(ctx);
      round();
      const Snap d = Snap::of(ctx) - start;
      if (r == 0) {
        me.first = d;
      } else if (d.msgs != me.first.msgs || d.bytes != me.first.bytes ||
                 std::abs(d.clock - me.first.clock) >
                     1e-9 * std::max(1e-12, me.first.clock)) {
        me.consistent = false;
      }
      me.rounds = r + 1;
      if (ctx.rank() == 0 && host_now() >= deadline_) {
        last_round_.store(r);
      }
      sync(ctx, all, kCollectives);
      if (ctx.rank() == 0) {
        round_marks_.push_back(host_now());
        peak_rss_mb_ = peak_rss_mb();
      }
      if (tracer_ != nullptr) {
        tracer_->span(ctx, kSched, [] {});  // the bare park/wake floor
      }
      if (last_round_.load() == r) {
        return r + 1;
      }
    }
  }

  struct Result {
    int rounds = 0;
    bool consistent = true;  ///< every round of every rank cost the same
    double setup_end = 0.0;  ///< host seconds since process start
    /// Host seconds of the fastest round.  Every round repeats the same
    /// work, and other load on the host only ever adds time, so the
    /// fastest round is the steadiest estimate of the code's own cost (the
    /// median moved by 10-16% between runs on a shared 4-core host).
    double wall_s = 0.0;
    double rss_mb = 0.0;     ///< peak RSS at the end of the timed phase
    double makespan = 0.0;   ///< modeled seconds of one round
    Snap first_sum;          ///< one round's counter deltas, summed
  };

  [[nodiscard]] Result result() const {
    Result out;
    out.rounds = rec_.front().rounds;
    out.setup_end = setup_end_;
    out.rss_mb = peak_rss_mb_;
    std::vector<double> walls;
    for (std::size_t i = 1; i < round_marks_.size(); ++i) {
      walls.push_back(round_marks_[i] - round_marks_[i - 1]);
    }
    out.wall_s = walls.empty() ? 0.0 : *std::min_element(walls.begin(), walls.end());
    for (const Rec& r : rec_) {
      out.consistent = out.consistent && r.consistent && r.rounds == out.rounds;
      out.makespan = std::max(out.makespan, r.first.clock);
      out.first_sum += r.first;
    }
    return out;
  }

 private:
  struct Rec {
    Snap first;
    int rounds = 0;
    bool consistent = true;
  };

  void sync(Context& ctx, const Group& all, SpanId id) {
    traced(tracer_, ctx, id, [&] { sync_clocks(ctx, all); });
  }

  double seconds_;
  Tracer* tracer_;
  std::vector<Rec> rec_;
  std::atomic<int> last_round_{-1};
  double setup_end_ = 0.0;
  double deadline_ = 0.0;
  double peak_rss_mb_ = 0.0;
  std::vector<double> round_marks_;  // rank 0 only
};

// ---------------------------------------------------------------------------
// Outputs and checks
// ---------------------------------------------------------------------------

/// What a workload hands to its checks: named host-side vectors (gathered
/// by the harness from every rank's owned slab, no simulated traffic) and
/// named scalars.
struct Outputs {
  std::map<std::string, std::vector<double>> vec;
  std::map<std::string, double> num;

  [[nodiscard]] const std::vector<double>& v(const std::string& k) const {
    return vec.at(k);
  }
  [[nodiscard]] double n(const std::string& k) const { return num.at(k); }
};

struct CheckDef {
  std::string name;
  /// Returns "" when the output passes, else what is wrong.
  std::function<std::string(const Outputs&)> check;
  /// Corrupts one value the check reads (for --selftest).
  std::function<void(Outputs&)> perturb;
};

std::string fmt_err(const char* what, double got, double limit) {
  std::ostringstream os;
  os.precision(6);
  os << what << ": " << got << " exceeds " << limit;
  return os.str();
}

/// max |a - b| relative to max |b|, or "" if within tol.
std::string compare_vec(const std::vector<double>& a,
                        const std::vector<double>& b, double tol) {
  if (a.size() != b.size()) {
    return "size mismatch";
  }
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return err <= tol * std::max(scale, 1e-300) ? ""
                                              : fmt_err("max deviation", err,
                                                        tol * scale);
}

std::string expect_equal(const char* what, double got, double want) {
  if (got == want) {
    return "";
  }
  std::ostringstream os;
  os.precision(17);
  os << what << ": " << got << " != " << want;
  return os.str();
}

void bump(std::vector<double>& v, std::size_t i) {
  v[i % v.size()] += 0.1 * (1.0 + std::abs(v[i % v.size()]));
}

/// The checks every workload shares: per-tag ledgers balance, and every
/// round of every rank cost the same modeled time and traffic.
void common_checks(std::vector<CheckDef>& out) {
  out.push_back({"ledger_balanced",
                 [](const Outputs& o) {
                   return expect_equal("unmatched messages", o.n("unmatched"), 0);
                 },
                 [](Outputs& o) { o.num["unmatched"] += 1; }});
  out.push_back({"rounds_identical",
                 [](const Outputs& o) {
                   return expect_equal("rounds agree", o.n("rounds_consistent"), 1);
                 },
                 [](Outputs& o) { o.num["rounds_consistent"] = 0; }});
}

// ---------------------------------------------------------------------------
// Machine-wide helpers
// ---------------------------------------------------------------------------

/// Host-side copy of a 2-D array's owned values into a row-major global
/// vector (harness read; no simulated traffic).  Ranks write disjoint cells.
template <class T>
void collect2(const DistArray2<T>& a, std::vector<T>& global) {
  const int ny = a.extent(1);
  a.for_each_owned([&](std::array<int, 2> g) {
    global[static_cast<std::size_t>(g[0]) * static_cast<std::size_t>(ny) +
           static_cast<std::size_t>(g[1])] = a.at(g);
  });
}

std::uint64_t unmatched_total(const MachineStats& st) {
  std::uint64_t n = 0;
  for (const auto& [tag, d] : st.unmatched_by_tag()) {
    n += static_cast<std::uint64_t>(std::llabs(d));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Workload plumbing
// ---------------------------------------------------------------------------

struct RunOpts {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  int workers = 1;
  bool deadlock_detection = true;
  bool tiny = false;  ///< --selftest sizes
};

/// The Predictor's closed form for one operation of a traced span.
struct Prediction {
  SpanId span = kNumSpans;
  int ops_per_call = 1;     ///< operations per call of `span`
  double op_seconds = 0.0;  ///< predicted modeled seconds per operation
};

/// One timed phase of one workload on one Machine.
struct Phase {
  Rounds::Result rounds;
  MachineStats stats;
  Outputs out;
  int ops_per_round = 0;
  int cg_iters = 0;  ///< paper_solvers only
  Prediction prediction;
  std::unique_ptr<Tracer> tracer;  ///< set for the traced run
};

struct Workload {
  std::string name;
  /// Runs the workload; with `traced`, records spans into a new ph.tracer.
  std::function<void(const RunOpts&, bool traced, Phase&)> run;
  std::vector<CheckDef> checks;
};

MachineConfig base_config(const RunOpts& o) {
  MachineConfig cfg;  // the defaults: the 1989 hypercube machine
  cfg.sim_workers = o.workers;
  cfg.deadlock_detection = o.deadlock_detection;
  return cfg;
}

// ---------------------------------------------------------------------------
// halo_many_ranks: thousands of ranks, tiny blocks, the machine layer
// ---------------------------------------------------------------------------

constexpr int kHaloJacobiIters = 1;   // per round, one jacobi_kf1 call
constexpr int kHaloStencilIters = 1;  // per round, 9-point sweeps

struct HaloSize {
  int p = 45;      // procs(p, p)
  int block = 8;   // points per rank per side
};

HaloSize halo_size(bool tiny) { return tiny ? HaloSize{3, 4} : HaloSize{}; }

/// Face-halo messages of one exchange on a px x py block grid (no wrap):
/// every interior grid edge carries one message each way.
std::uint64_t face_msgs(int px, int py) {
  return std::uint64_t{2} * static_cast<std::uint64_t>((px - 1) * py + px * (py - 1));
}

/// Corner-mode halo: the faces plus one coalesced message each way across
/// every interior grid diagonal (two diagonals per interior grid vertex).
std::uint64_t corner_msgs(int px, int py) {
  return face_msgs(px, py) + std::uint64_t{4} * static_cast<std::uint64_t>((px - 1) * (py - 1));
}

/// The 9-point smoothing stencil, in the one operation order both the
/// distributed sweep and the sequential oracle use.
inline double nine_point(double c, double n, double s, double w, double e,
                         double nw, double ne, double sw, double se) {
  return (4.0 * c + 2.0 * (n + s + w + e) + (nw + ne + sw + se)) * 0.0625;
}
constexpr double kNinePointFlops = 12.0;

struct HaloInputs {
  int nx = 0, ny = 0;      // stencil extents
  int nj = 0;              // Jacobi interior extent
  double fa = 0, fb = 0, fc = 0;  // Jacobi rhs coefficients
  std::uint64_t seed = 0;

  [[nodiscard]] double rhs(int i, int j) const {
    return fa * std::sin(fb * i) * std::cos(fc * j);
  }
  [[nodiscard]] double init(int i, int j) const {
    // Deterministic pseudo-random field from the seed (cheap hash).
    constexpr std::uint64_t k0 = 0x9e3779b97f4a7c15, k1 = 0xbf58476d1ce4e5b9,
                            k2 = 0x94d049bb133111eb, k3 = 0xd6e8feb86659fd93;
    std::uint64_t z = seed * k0 + static_cast<std::uint64_t>(i) * k1 +
                      static_cast<std::uint64_t>(j) * k2;
    z ^= z >> 31;
    z *= k3;
    z ^= z >> 32;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

HaloInputs halo_inputs(const RunOpts& o) {
  const HaloSize sz = halo_size(o.tiny);
  Rng rng(o.seed);
  HaloInputs in;
  in.seed = o.seed;
  // One grid gets block x block points per rank and the other
  // (block-1) x (block-1); the seed decides which.  Face traffic per round
  // stays the same, while the modeled time moves a little with the seed.
  const int bj = sz.block - rng.uniform_int(0, 1);
  const int bs = 2 * sz.block - 1 - bj;
  in.nj = sz.p * bj;
  in.nx = sz.p * bs;
  // The seed also trims up to bs-1 columns off the stencil grid's last
  // processor column (every rank keeps at least one column).
  in.ny = sz.p * bs - rng.uniform_int(0, bs - 1);
  in.fa = rng.uniform(0.5e-3, 1.5e-3);
  in.fb = rng.uniform(0.1, 0.3);
  in.fc = rng.uniform(0.1, 0.3);
  return in;
}

std::vector<double> seq_jacobi(const HaloInputs& in, int iters) {
  const int n = in.nj;
  const auto idx = [n](int i, int j) {
    return static_cast<std::size_t>((i + 1) * (n + 2) + (j + 1));
  };
  std::vector<double> x(static_cast<std::size_t>((n + 2) * (n + 2)), 0.0);
  std::vector<double> y = x;
  for (int it = 0; it < iters; ++it) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        y[idx(i, j)] = 0.25 * (x[idx(i + 1, j)] + x[idx(i - 1, j)] +
                               x[idx(i, j + 1)] + x[idx(i, j - 1)]) -
                       in.rhs(i, j);
      }
    }
    std::swap(x, y);
  }
  std::vector<double> out(static_cast<std::size_t>(n * n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      out[static_cast<std::size_t>(i * n + j)] = x[idx(i, j)];
    }
  }
  return out;
}

std::vector<double> seq_nine_point(const HaloInputs& in, int iters) {
  const int nx = in.nx, ny = in.ny;
  const auto idx = [ny](int i, int j) {
    return static_cast<std::size_t>((i + 1) * (ny + 2) + (j + 1));
  };
  std::vector<double> u(static_cast<std::size_t>((nx + 2) * (ny + 2)), 0.0);
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      u[idx(i, j)] = in.init(i, j);
    }
  }
  std::vector<double> v = u;
  for (int it = 0; it < iters; ++it) {
    for (int i = 0; i < nx; ++i) {
      for (int j = 0; j < ny; ++j) {
        v[idx(i, j)] = nine_point(u[idx(i, j)], u[idx(i - 1, j)], u[idx(i + 1, j)],
                                  u[idx(i, j - 1)], u[idx(i, j + 1)],
                                  u[idx(i - 1, j - 1)], u[idx(i - 1, j + 1)],
                                  u[idx(i + 1, j - 1)], u[idx(i + 1, j + 1)]);
      }
    }
    std::swap(u, v);
  }
  std::vector<double> out(static_cast<std::size_t>(nx * ny));
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      out[static_cast<std::size_t>(i * ny + j)] = u[idx(i, j)];
    }
  }
  return out;
}

void run_halo(const RunOpts& o, bool traced_run, Phase& ph) {
  const HaloSize sz = halo_size(o.tiny);
  const HaloInputs in = halo_inputs(o);
  const int p = sz.p * sz.p;
  MachineConfig cfg = base_config(o);  // hypercube, LinkContention::kNone
  Machine m(p, cfg);
  if (traced_run) {
    ph.tracer = std::make_unique<Tracer>(p);
  }
  Tracer* tr = ph.tracer.get();
  Rounds rounds(p, o.seconds, tr);
  std::vector<double> jacobi_out;
  std::vector<double> stencil_out(static_cast<std::size_t>(in.nx * in.ny));
  std::vector<double> ghost_err(static_cast<std::size_t>(p), 0.0);
  const JacobiRhs f = [&in](int i, int j) { return in.rhs(i, j); };

  m.run([&](Context& ctx) {
    const ProcView procs = ProcView::grid2(sz.p, sz.p);
    const Group all = procs.group(ctx.rank());
    if (tr != nullptr) {
      tr->open(ctx);
    }
    using D2 = DistArray2<double>;
    const D2::Dists bb{DimDist::block_dist(), DimDist::block_dist()};
    D2 u, v;
    traced(tr, ctx, kAlloc, [&] {
      u = D2(ctx, procs, {in.nx, in.ny}, bb, {1, 1});
      v = D2(ctx, procs, {in.nx, in.ny}, bb, {1, 1});
      u.fill([&](std::array<int, 2> g) { return in.init(g[0], g[1]); });
    });
    const Range ri{0, in.nx - 1}, rj{0, in.ny - 1};

    rounds.run(ctx, all, [&] {
      traced(tr, ctx, kJacobi, [&] {
        jacobi_kf1(ctx, procs, in.nj, f, kHaloJacobiIters, /*collect=*/false);
      });
      for (int it = 0; it < kHaloStencilIters; ++it) {
        traced(tr, ctx, kHalo, [&] { u.exchange_halo(HaloCorners::kYes); });
        traced(tr, ctx, kDoall, [&] {
          doall2(
              v, ri, rj,
              [&](int i, int j) {
                v(i, j) = nine_point(u(i, j), u.at_halo({i - 1, j}),
                                     u.at_halo({i + 1, j}), u.at_halo({i, j - 1}),
                                     u.at_halo({i, j + 1}), u.at_halo({i - 1, j - 1}),
                                     u.at_halo({i - 1, j + 1}),
                                     u.at_halo({i + 1, j - 1}),
                                     u.at_halo({i + 1, j + 1}));
              },
              kNinePointFlops);
          std::swap(u, v);
        });
      }
    });

    traced(tr, ctx, kBench, [&] {
      collect2(u, stencil_out);
      // Corner-halo ghosts of a freshly filled array must hold the fill
      // function at their global coordinates (zero outside the domain).
      D2 w(ctx, procs, {in.nx, in.ny}, bb, {1, 1});
      w.fill([&](std::array<int, 2> g) { return in.init(g[0], g[1]); });
      w.exchange_halo(HaloCorners::kYes);
      double err = 0.0;
      for (int i = w.own_lower(0) - 1; i <= w.own_upper(0) + 1; ++i) {
        for (int j = w.own_lower(1) - 1; j <= w.own_upper(1) + 1; ++j) {
          const bool inside = i >= 0 && i < in.nx && j >= 0 && j < in.ny;
          err = std::max(err, std::abs(w.at_halo({i, j}) -
                                       (inside ? in.init(i, j) : 0.0)));
        }
      }
      ghost_err[static_cast<std::size_t>(ctx.rank())] = err;
      auto x = jacobi_kf1(ctx, procs, in.nj, f, kHaloJacobiIters, true);
      if (ctx.rank() == 0) {
        jacobi_out = std::move(x);
      }
    });
  });

  ph.rounds = rounds.result();
  ph.stats = m.stats();
  ph.ops_per_round = 1 + kHaloStencilIters;
  Outputs& out = ph.out;
  out.vec["jacobi"] = std::move(jacobi_out);
  out.vec["jacobi_ref"] = seq_jacobi(in, kHaloJacobiIters);
  out.vec["stencil"] = std::move(stencil_out);
  out.vec["stencil_ref"] =
      seq_nine_point(in, kHaloStencilIters * ph.rounds.rounds);
  out.vec["ghost_err"] = ghost_err;
  out.num["round_msgs"] = static_cast<double>(ph.rounds.first_sum.msgs);
  out.num["round_msgs_ref"] = static_cast<double>(
      kHaloJacobiIters * face_msgs(sz.p, sz.p) +
      kHaloStencilIters * corner_msgs(sz.p, sz.p));
  const Predictor pred(cfg, p);
  ph.prediction = {kJacobi, kHaloJacobiIters, pred.jacobi_iteration(in.nj, sz.p)};
}

std::vector<CheckDef> halo_checks() {
  std::vector<CheckDef> c;
  c.push_back({"jacobi_matches_sequential",
               [](const Outputs& o) {
                 return compare_vec(o.v("jacobi"), o.v("jacobi_ref"), 1e-12);
               },
               [](Outputs& o) { bump(o.vec["jacobi"], 77); }});
  c.push_back({"nine_point_matches_sequential",
               [](const Outputs& o) {
                 return compare_vec(o.v("stencil"), o.v("stencil_ref"), 1e-12);
               },
               [](Outputs& o) { bump(o.vec["stencil"], 5); }});
  c.push_back({"corner_ghosts_hold_fill",
               [](const Outputs& o) {
                 const auto& e = o.v("ghost_err");
                 const double worst = *std::max_element(e.begin(), e.end());
                 return worst == 0.0 ? "" : fmt_err("ghost error", worst, 0.0);
               },
               [](Outputs& o) { bump(o.vec["ghost_err"], 1); }});
  c.push_back({"halo_msgs_closed_form",
               [](const Outputs& o) {
                 return expect_equal("messages per round", o.n("round_msgs"),
                                     o.n("round_msgs_ref"));
               },
               [](Outputs& o) { o.num["round_msgs"] += 1; }});
  common_checks(c);
  return c;
}

// ---------------------------------------------------------------------------
// fft_transpose: few ranks, large slabs, store-and-forward mesh
// ---------------------------------------------------------------------------

constexpr int kFftRoundTrips = 1;  // forward + inverse per round
constexpr int kFftAdiIters = 2;    // ADI transpose iterations per round

struct FftSize {
  int p = 16;        // ranks, grid1 for the FFT, grid2(4, 4) for ADI
  int n = 512;       // FFT extent (power of two)
  int adi_n = 256;   // ADI interior extent before the seed's trim
};

FftSize fft_size(bool tiny) { return tiny ? FftSize{4, 32, 24} : FftSize{}; }

MachineConfig fft_config(const RunOpts& o) {
  MachineConfig cfg = base_config(o);
  cfg.topology = Topology::kMesh2D;
  cfg.link_contention = LinkContention::kStoreForward;
  return cfg;
}

using Cplx = std::complex<double>;

/// Direct DFT coefficient X(k0, k1) of a row-major n x n input.
Cplx direct_dft(const std::vector<Cplx>& x, int n, int k0, int k1) {
  std::vector<Cplx> t0(static_cast<std::size_t>(n)), t1(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a0 = -2.0 * std::numbers::pi * static_cast<double>((static_cast<long>(k0) * i) % n) / n;
    const double a1 = -2.0 * std::numbers::pi * static_cast<double>((static_cast<long>(k1) * i) % n) / n;
    t0[static_cast<std::size_t>(i)] = Cplx(std::cos(a0), std::sin(a0));
    t1[static_cast<std::size_t>(i)] = Cplx(std::cos(a1), std::sin(a1));
  }
  Cplx sum = 0.0;
  for (int i = 0; i < n; ++i) {
    Cplx row = 0.0;
    for (int j = 0; j < n; ++j) {
      row += t1[static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(j)];
    }
    sum += t0[static_cast<std::size_t>(i)] * row;
  }
  return sum;
}

std::vector<double> interleave(const std::vector<Cplx>& z) {
  std::vector<double> out;
  out.reserve(2 * z.size());
  for (const Cplx& c : z) {
    out.push_back(c.real());
    out.push_back(c.imag());
  }
  return out;
}

std::vector<Cplx> deinterleave(const std::vector<double>& v) {
  std::vector<Cplx> out(v.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = Cplx(v[2 * i], v[2 * i + 1]);
  }
  return out;
}

/// ADI iterations both ADI checks wait for (topped up after the timed
/// phase when it ran fewer): enough for the factored iteration to halve
/// the residual from the zero start.
constexpr int kAdiCheckIters = 10;

/// ADI state shared by fft_transpose (transpose mode) and paper_solvers
/// (pipelined mode): the manufactured problem of bench/bench_adi.
struct AdiProblem {
  DistArray2<double> u, f;
  AdiOptions opts;

  AdiProblem(Context& ctx, const ProcView& view, int n, bool transpose,
             bool pipelined) {
    Op2 op;
    op.hx = op.hy = 1.0 / (n + 1);
    using D2 = DistArray2<double>;
    const D2::Dists bb{DimDist::block_dist(), DimDist::block_dist()};
    u = D2(ctx, view, {n, n}, bb, {1, 1});
    f = D2(ctx, view, {n, n}, bb);
    f.fill([&](std::array<int, 2> g) {
      return rhs2(op, (g[0] + 1) * op.hx, (g[1] + 1) * op.hy);
    });
    opts.op = op;
    opts.tau = adi_default_tau(op, n);
    opts.transpose = transpose;
    opts.pipelined = pipelined;
  }
};

void run_fft(const RunOpts& o, bool traced_run, Phase& ph) {
  const FftSize sz = fft_size(o.tiny);
  Rng rng(o.seed);
  const int n = sz.n;
  // The seed trims 0..3 points off the ADI grid: a different instance per
  // seed, same distribution shape.
  const int adi_n = sz.adi_n - rng.uniform_int(0, 3);
  std::vector<Cplx> input(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (Cplx& c : input) {
    c = Cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  const MachineConfig cfg = fft_config(o);
  Machine m(sz.p, cfg);
  if (traced_run) {
    ph.tracer = std::make_unique<Tracer>(sz.p);
  }
  Tracer* tr = ph.tracer.get();
  Rounds rounds(sz.p, o.seconds, tr);
  std::vector<Cplx> back(input.size()), spectrum(input.size());
  double adi_r0 = 0.0, adi_r1 = 0.0;
  const int pside = o.tiny ? 2 : 4;

  m.run([&](Context& ctx) {
    const ProcView line = ProcView::grid1(sz.p);
    const ProcView grid = ProcView::grid2(pside, pside);
    const Group all = line.group(ctx.rank());
    if (tr != nullptr) {
      tr->open(ctx);
    }
    using DC = DistArray2<Cplx>;
    const DC::Dists by_rows{DimDist::block_dist(), DimDist::star()};
    const DC::Dists by_cols{DimDist::star(), DimDist::block_dist()};
    DC rows, cols;
    std::unique_ptr<AdiProblem> adi;
    traced(tr, ctx, kAlloc, [&] {
      rows = DC(ctx, line, {n, n}, by_rows);
      cols = DC(ctx, line, {n, n}, by_cols);
      rows.fill([&](std::array<int, 2> g) {
        return input[static_cast<std::size_t>(g[0]) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(g[1])];
      });
      adi = std::make_unique<AdiProblem>(ctx, grid, adi_n, /*transpose=*/true,
                                         /*pipelined=*/false);
    });
    double r0 = 0.0;
    traced(tr, ctx, kBench,
           [&] { r0 = adi_residual_norm(adi->opts.op, adi->u, adi->f); });

    const int nrounds = rounds.run(ctx, all, [&] {
      for (int t = 0; t < kFftRoundTrips; ++t) {
        if (tr == nullptr) {
          fft2_forward(ctx, rows, cols);
          fft2_inverse(ctx, cols, rows);
        } else {
          // fft2_forward / fft2_inverse spelled out through the same public
          // pieces, so lines and transpose get spans of their own.
          tr->span(ctx, kFftLines, [&] { fft_lines(rows, 1, false); });
          tr->span(ctx, kRedistribute, [&] { redistribute(ctx, rows, cols); });
          tr->span(ctx, kFftLines, [&] { fft_lines(cols, 0, false); });
          tr->span(ctx, kFftLines, [&] { fft_lines(cols, 0, true); });
          tr->span(ctx, kRedistribute, [&] { redistribute(ctx, cols, rows); });
          tr->span(ctx, kFftLines, [&] { fft_lines(rows, 1, true); });
        }
      }
      for (int it = 0; it < kFftAdiIters; ++it) {
        traced(tr, ctx, kAdi, [&] { adi_iterate(adi->opts, adi->u, adi->f); });
      }
    });

    traced(tr, ctx, kBench, [&] {
      collect2(rows, back);
      fft2_forward(ctx, rows, cols);
      collect2(cols, spectrum);
      fft2_inverse(ctx, cols, rows);
      for (int it = nrounds * kFftAdiIters; it < kAdiCheckIters; ++it) {
        adi_iterate(adi->opts, adi->u, adi->f);
      }
      const double r1 = adi_residual_norm(adi->opts.op, adi->u, adi->f);
      if (ctx.rank() == 0) {
        adi_r0 = r0;
        adi_r1 = r1;
      }
    });
  });

  ph.rounds = rounds.result();
  ph.stats = m.stats();
  ph.ops_per_round = 2 * kFftRoundTrips + kFftAdiIters;
  Outputs& out = ph.out;
  out.vec["input"] = interleave(input);
  out.vec["roundtrip"] = interleave(back);
  out.vec["spectrum"] = interleave(spectrum);
  out.num["n"] = n;
  // Three coefficients from the seed plus the DC term.
  for (int k = 0; k < 4; ++k) {
    const int k0 = k == 0 ? 0 : rng.uniform_int(0, n - 1);
    const int k1 = k == 0 ? 0 : rng.uniform_int(0, n - 1);
    out.num["dft_k0_" + std::to_string(k)] = k0;
    out.num["dft_k1_" + std::to_string(k)] = k1;
  }
  out.num["adi_r0"] = adi_r0;
  out.num["adi_r1"] = adi_r1;
  // Predictor gap, measured on the transpose: one redistribute is a
  // complete exchange of (n/p)^2 complex slabs plus one pack and one unpack
  // flop per local element.
  const Predictor pred(cfg, sz.p);
  const double slab = static_cast<double>(n / sz.p) * (n / sz.p) * sizeof(Cplx);
  ph.prediction = {kRedistribute, 1,
                   pred.all_to_all(sz.p, slab, cfg.link_contention) +
                       2.0 * static_cast<double>(n) * (n / sz.p) * cfg.flop_time};
}

std::vector<CheckDef> fft_checks() {
  std::vector<CheckDef> c;
  c.push_back({"fft_roundtrip_restores_input",
               [](const Outputs& o) {
                 return compare_vec(o.v("roundtrip"), o.v("input"), 1e-10);
               },
               [](Outputs& o) { bump(o.vec["roundtrip"], 3); }});
  c.push_back({"fft_parseval",
               [](const Outputs& o) {
                 double ex = 0.0, eX = 0.0;
                 for (double v : o.v("roundtrip")) {
                   ex += v * v;
                 }
                 for (double v : o.v("spectrum")) {
                   eX += v * v;
                 }
                 const double nn = o.n("n") * o.n("n");
                 const double rel = std::abs(eX - nn * ex) / (nn * ex);
                 return rel <= 1e-10 ? "" : fmt_err("Parseval gap", rel, 1e-10);
               },
               [](Outputs& o) { bump(o.vec["spectrum"], 11); }});
  c.push_back({"fft_matches_direct_dft",
               [](const Outputs& o) {
                 const int n = static_cast<int>(o.n("n"));
                 const auto x = deinterleave(o.v("roundtrip"));
                 const auto X = deinterleave(o.v("spectrum"));
                 double l1 = 0.0;
                 for (const Cplx& z : x) {
                   l1 += std::abs(z);
                 }
                 for (int k = 0; k < 4; ++k) {
                   const int k0 = static_cast<int>(o.n("dft_k0_" + std::to_string(k)));
                   const int k1 = static_cast<int>(o.n("dft_k1_" + std::to_string(k)));
                   const Cplx want = direct_dft(x, n, k0, k1);
                   const Cplx got = X[static_cast<std::size_t>(k0) * static_cast<std::size_t>(n) +
                                      static_cast<std::size_t>(k1)];
                   if (std::abs(got - want) > 1e-10 * l1) {
                     return fmt_err("DFT coefficient error", std::abs(got - want), 1e-10 * l1);
                   }
                 }
                 return std::string();
               },
               [](Outputs& o) {
                 // Corrupt X(0, 0), the DC coefficient the check always reads.
                 o.vec["spectrum"][0] += 1.0 + std::abs(o.vec["spectrum"][0]);
               }});
  c.push_back({"adi_residual_decreases",
               [](const Outputs& o) {
                 return o.n("adi_r1") < o.n("adi_r0")
                            ? ""
                            : fmt_err("ADI residual", o.n("adi_r1"), o.n("adi_r0"));
               },
               [](Outputs& o) { o.num["adi_r1"] = o.num["adi_r0"]; }});
  common_checks(c);
  return c;
}

// ---------------------------------------------------------------------------
// paper_solvers: mg3, pipelined ADI, sparse CG on a moderate machine
// ---------------------------------------------------------------------------

constexpr int kMg3Cycles = 1;  // per round
constexpr int kAdiIters = 2;   // per round
constexpr int kCgSolves = 1;   // per round
constexpr double kCgRtol = 1e-8;

struct SolverSize {
  int pside = 4;    // procs(4, 4)
  int mg3_n = 32;   // mg3 grid intervals per side
  int adi_n = 128;  // ADI interior extent
  int cg_side = 64; // sparse CG: side of the renumbered 2-D Laplacian
};

SolverSize solver_size(bool tiny) {
  return tiny ? SolverSize{2, 8, 16, 12} : SolverSize{};
}

MachineConfig solver_config(const RunOpts& o) {
  MachineConfig cfg = base_config(o);
  cfg.link_contention = LinkContention::kPorts;
  return cfg;
}

/// A 2-D Laplacian whose unknowns are renumbered by a seeded random
/// permutation (an irregular column pattern by construction).
struct ScrambledLaplacian {
  int side;
  int n;
  std::vector<int> perm, inv;

  ScrambledLaplacian(int s, std::uint64_t seed) : side(s), n(s * s) {
    perm.resize(static_cast<std::size_t>(n));
    inv.resize(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(seed);
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    }
    for (int i = 0; i < n; ++i) {
      inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
    }
  }

  [[nodiscard]] std::vector<std::pair<int, double>> row(int r) const {
    const int gi = inv[static_cast<std::size_t>(r)];
    const int x = gi % side, y = gi / side;
    std::vector<std::pair<int, double>> out{{r, 4.0}};
    const auto add = [&](int xx, int yy) {
      if (xx >= 0 && xx < side && yy >= 0 && yy < side) {
        out.emplace_back(perm[static_cast<std::size_t>(yy * side + xx)], -1.0);
      }
    };
    add(x - 1, y);
    add(x + 1, y);
    add(x, y - 1);
    add(x, y + 1);
    return out;
  }
};

void run_solvers(const RunOpts& o, bool traced_run, Phase& ph) {
  const SolverSize sz = solver_size(o.tiny);
  const int p = sz.pside * sz.pside;
  Rng rng(o.seed);
  const ScrambledLaplacian lap(sz.cg_side, rng.next_u64());
  std::vector<double> b(static_cast<std::size_t>(lap.n));
  for (double& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  const MachineConfig cfg = solver_config(o);
  Machine m(p, cfg);
  if (traced_run) {
    ph.tracer = std::make_unique<Tracer>(p);
  }
  Tracer* tr = ph.tracer.get();
  Rounds rounds(p, o.seconds, tr);
  const int mn = sz.mg3_n;
  std::vector<double> mg3_err(static_cast<std::size_t>(p), 0.0);
  std::vector<double> cg_x(static_cast<std::size_t>(lap.n), 0.0);
  std::atomic<int> cg_iters{0};
  double adi_r0 = 0.0, adi_r1 = 0.0;

  m.run([&](Context& ctx) {
    const ProcView grid = ProcView::grid2(sz.pside, sz.pside);
    const ProcView line = ProcView::grid1(p);
    const Group all = line.group(ctx.rank());
    if (tr != nullptr) {
      tr->open(ctx);
    }
    Op3 op3;
    op3.hx = op3.hy = op3.hz = 1.0 / mn;
    Mg3Options mg3_opts;
    mg3_opts.overlap = Overlap::kOn;
    mg3_opts.plane_mg2.overlap = Overlap::kOn;
    using D3 = DistArray3<double>;
    const D3::Dists d3{DimDist::star(), DimDist::block_dist(), DimDist::block_dist()};
    D3 u3, f3;
    std::unique_ptr<AdiProblem> adi;
    DistArray1<double> x, bb;
    traced(tr, ctx, kAlloc, [&] {
      u3 = D3(ctx, grid, {mn + 1, mn + 1, mn + 1}, d3, {0, 1, 1});
      f3 = D3(ctx, grid, {mn + 1, mn + 1, mn + 1}, d3);
      f3.fill([&](std::array<int, 3> g) {
        return rhs3(op3, g[0] * op3.hx, g[1] * op3.hy, g[2] * op3.hz);
      });
      adi = std::make_unique<AdiProblem>(ctx, grid, sz.adi_n, /*transpose=*/false,
                                         /*pipelined=*/true);
      x = DistArray1<double>(ctx, line, {lap.n}, {DimDist::block_dist()});
      bb = DistArray1<double>(ctx, line, {lap.n}, {DimDist::block_dist()});
      bb.fill([&](std::array<int, 1> g) { return b[static_cast<std::size_t>(g[0])]; });
    });
    std::unique_ptr<DistCsrMatrix> A;
    traced(tr, ctx, kInspector, [&] {
      A = std::make_unique<DistCsrMatrix>(x, [&lap](int r) { return lap.row(r); });
    });
    double r0 = 0.0;
    traced(tr, ctx, kBench,
           [&] { r0 = adi_residual_norm(adi->opts.op, adi->u, adi->f); });

    const int nrounds = rounds.run(ctx, all, [&] {
      for (int c = 0; c < kMg3Cycles; ++c) {
        traced(tr, ctx, kMg3, [&] { mg3_cycle(op3, u3, f3, mg3_opts); });
      }
      for (int it = 0; it < kAdiIters; ++it) {
        traced(tr, ctx, kAdi, [&] { adi_iterate(adi->opts, adi->u, adi->f); });
      }
      for (int s = 0; s < kCgSolves; ++s) {
        traced(tr, ctx, kCg, [&] {
          x.fill_value(0.0);
          const int its = sparse_cg(*A, bb, x, kCgRtol, 10 * lap.n);
          if (ctx.rank() == 0) {
            cg_iters.store(its);
          }
        });
      }
      // Divergence monitor: the largest |u| of the mg3 iterate.
      traced(tr, ctx, kCollectives, [&] {
        double big = 0.0;
        u3.for_each_owned([&](std::array<int, 3> g) { big = std::max(big, std::abs(u3.at(g))); });
        (void)allreduce_max(ctx, all, big);
      });
    });

    traced(tr, ctx, kBench, [&] {
      // mg3 keeps cycling until it has run 8 cycles in all, so the check
      // sees a converged iterate however few rounds the time allowed.
      for (int c = nrounds * kMg3Cycles; c < 8; ++c) {
        mg3_cycle(op3, u3, f3, mg3_opts);
      }
      double err = 0.0;
      u3.for_each_owned([&](std::array<int, 3> g) {
        err = std::max(err, std::abs(u3.at(g) - exact3(g[0] * op3.hx, g[1] * op3.hy,
                                                       g[2] * op3.hz)));
      });
      mg3_err[static_cast<std::size_t>(ctx.rank())] = err;
      for (int it = nrounds * kAdiIters; it < kAdiCheckIters; ++it) {
        adi_iterate(adi->opts, adi->u, adi->f);
      }
      x.for_each_owned([&](std::array<int, 1> g) {
        cg_x[static_cast<std::size_t>(g[0])] = x.at(g);
      });
      const double r1 = adi_residual_norm(adi->opts.op, adi->u, adi->f);
      if (ctx.rank() == 0) {
        adi_r0 = r0;
        adi_r1 = r1;
      }
    });
  });

  ph.rounds = rounds.result();
  ph.stats = m.stats();
  ph.ops_per_round = kMg3Cycles + kAdiIters + kCgSolves;
  Outputs& out = ph.out;
  out.vec["mg3_err"] = mg3_err;
  out.num["mg3_h"] = 1.0 / mn;
  // Sequential residual of the CG solution, from the row generator.
  double rr = 0.0, bn = 0.0;
  for (int r = 0; r < lap.n; ++r) {
    double ax = 0.0;
    for (const auto& [col, val] : lap.row(r)) {
      ax += val * cg_x[static_cast<std::size_t>(col)];
    }
    const double d = b[static_cast<std::size_t>(r)] - ax;
    rr += d * d;
    bn += b[static_cast<std::size_t>(r)] * b[static_cast<std::size_t>(r)];
  }
  out.vec["cg_x"] = cg_x;
  out.num["cg_resid"] = std::sqrt(rr);
  out.num["cg_bnorm"] = std::sqrt(bn);
  out.num["adi_r0"] = adi_r0;
  out.num["adi_r1"] = adi_r1;
  ph.cg_iters = cg_iters.load();
  const Predictor pred(cfg, p);
  ph.prediction = {kAdi, 1, pred.adi_iteration(sz.adi_n, sz.pside, sz.pside, true)};
}

std::vector<CheckDef> solver_checks() {
  std::vector<CheckDef> c;
  // Truncation error of the 7-point Laplacian on exact3 is
  // (h^2/12)(u_xxxx + u_yyyy + u_zzzz) = (h^2/12) 3 pi^4 u; the discrete
  // solution error is about that over 3 pi^2, i.e. (pi^2/12) h^2 max|u|.
  // Allow twice that for the iteration error left after the cycles.
  c.push_back({"mg3_within_h2_of_exact",
               [](const Outputs& o) {
                 const auto& e = o.v("mg3_err");
                 const double worst = *std::max_element(e.begin(), e.end());
                 const double h = o.n("mg3_h");
                 const double bound = 2.0 * std::numbers::pi * std::numbers::pi / 12.0 * h * h;
                 return worst <= bound ? "" : fmt_err("mg3 max error", worst, bound);
               },
               [](Outputs& o) { bump(o.vec["mg3_err"], 0); }});
  c.push_back({"cg_residual_within_rtol",
               [](const Outputs& o) {
                 // 1% slack for the gap between CG's recursive residual
                 // (what it stops on) and the recomputed true residual.
                 const double limit = 1.01 * kCgRtol * o.n("cg_bnorm");
                 return o.n("cg_resid") <= limit
                            ? ""
                            : fmt_err("CG true residual", o.n("cg_resid"), limit);
               },
               [](Outputs& o) { o.num["cg_resid"] += 0.1 * o.num["cg_bnorm"]; }});
  c.push_back({"adi_residual_decreases",
               [](const Outputs& o) {
                 return o.n("adi_r1") < o.n("adi_r0")
                            ? ""
                            : fmt_err("ADI residual", o.n("adi_r1"), o.n("adi_r0"));
               },
               [](Outputs& o) { o.num["adi_r1"] = o.num["adi_r0"]; }});
  common_checks(c);
  return c;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::vector<Workload> workloads() {
  return {{"halo_many_ranks", run_halo, halo_checks()},
          {"fft_transpose", run_fft, fft_checks()},
          {"paper_solvers", run_solvers, solver_checks()}};
}

/// Fills the outputs every workload shares, then runs the checks.
std::vector<std::string> verify(const Workload& w, Phase& ph) {
  ph.out.num["unmatched"] = static_cast<double>(unmatched_total(ph.stats));
  ph.out.num["rounds_consistent"] = ph.rounds.consistent ? 1.0 : 0.0;
  std::vector<std::string> failures;
  for (const CheckDef& c : w.checks) {
    const std::string why = c.check(ph.out);
    if (!why.empty()) {
      failures.push_back(c.name + ": " + why);
    }
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream os;
    os.precision(17);
    os << '"' << name << "\": {\"value\": " << (std::isfinite(value) ? value : 0.0)
       << ", \"unit\": \"" << unit << "\"}";
    items_.push_back(os.str());
  }
  [[nodiscard]] std::string str() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      s += (i == 0 ? "" : ", ") + items_[i];
    }
    return s + "}";
  }

 private:
  std::vector<std::string> items_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int workers = 1;
  bool detector = true;
  bool selftest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for " + k);
      }
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::stoull(val());
    } else if (k == "--seconds") {
      a.seconds = std::stod(val());
    } else if (k == "--trace") {
      a.trace = std::stoi(val());
    } else if (k == "--workers") {
      a.workers = std::stoi(val());
    } else if (k == "--detector") {
      a.detector = std::stoi(val()) != 0;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  return a;
}

/// Per-layer metrics from one untraced default run (a), one untraced run
/// with the deadlock detector off (b) and one traced run (c).
void layer_metrics(const Phase& a, const Phase& b, const Phase& c,
                   JsonMetrics& js) {
  const Tracer& t = *c.tracer;
  const double rounds = c.rounds.rounds;
  const Rounds::Result& ra = a.rounds;
  const auto tot = [&](SpanId id) { return t.totals(id); };
  const auto per_round = [&](double v) { return v / rounds; };

  js.add("machine.sched_host_s", per_round(tot(kSched).host_s), "s");
  js.add("machine.host_ns_per_msg",
         ra.first_sum.msgs > 0 ? 1e9 * ra.wall_s / static_cast<double>(ra.first_sum.msgs) : 0.0,
         "ns");
  js.add("machine.detector_host_s", ra.wall_s - b.rounds.wall_s, "s");
  const Snap& s = a.rounds.first_sum;
  js.add("machine.compute_s", s.compute, "s");
  js.add("machine.overhead_s", s.overhead, "s");
  js.add("machine.wait_s", s.wait, "s");
  js.add("machine.link_wait_s", s.link_wait, "s");
  js.add("machine.edge_wait_s", s.edge_wait, "s");
  js.add("machine.overlap_ratio", s.window > 0 ? s.hidden / s.window : 0.0, "ratio");
  js.add("machine.max_mailbox_depth", static_cast<double>(a.stats.max_mailbox_depth()),
         "count");
  const auto coll = tot(kCollectives);
  js.add("machine.collectives.host_s", per_round(coll.host_s), "s");
  js.add("machine.collectives.modeled_s", per_round(coll.modeled_s), "s");
  js.add("machine.collectives.msgs", per_round(static_cast<double>(coll.msgs)), "count");

  const auto halo = tot(kHalo);
  js.add("runtime.halo.host_s", per_round(halo.host_s), "s");
  js.add("runtime.halo.modeled_s", per_round(halo.modeled_s), "s");
  js.add("runtime.halo.msgs", per_round(static_cast<double>(halo.msgs)), "count");
  js.add("runtime.halo.wire_mb", per_round(static_cast<double>(halo.bytes) / 1e6), "MB");
  const auto doall = tot(kDoall);
  js.add("runtime.doall.host_s", per_round(doall.host_s), "s");
  js.add("runtime.doall.modeled_s", per_round(doall.modeled_s), "s");
  const auto redist = tot(kRedistribute);
  js.add("runtime.redistribute.host_s", per_round(redist.host_s), "s");
  js.add("runtime.redistribute.modeled_s", per_round(redist.modeled_s), "s");
  js.add("runtime.redistribute.msgs", per_round(static_cast<double>(redist.msgs)), "count");
  js.add("runtime.redistribute.wire_mb", per_round(static_cast<double>(redist.bytes) / 1e6),
         "MB");
  const auto insp = tot(kInspector);
  js.add("runtime.inspector.host_s", insp.host_s, "s");
  js.add("runtime.inspector.msgs", static_cast<double>(insp.msgs), "count");
  js.add("runtime.alloc.host_s", tot(kAlloc).host_s, "s");

  const auto fl = tot(kFftLines);
  js.add("kernels.fft_lines.host_s", per_round(fl.host_s), "s");
  js.add("kernels.fft_lines.modeled_s", per_round(fl.modeled_s), "s");
  js.add("kernels.fft_lines.host_mflops",
         fl.host_s > 0 ? fl.sum.flops / fl.host_s / 1e6 : 0.0, "MFLOP/s");

  for (const auto& [id, name] : {std::pair{kJacobi, "solvers.jacobi_kf1"},
                                 std::pair{kMg3, "solvers.mg3_cycle"},
                                 std::pair{kAdi, "solvers.adi_iterate"},
                                 std::pair{kCg, "solvers.sparse_cg"}}) {
    const auto x = tot(id);
    js.add(std::string(name) + ".host_s", per_round(x.host_s), "s");
    js.add(std::string(name) + ".modeled_s", per_round(x.modeled_s), "s");
    js.add(std::string(name) + ".msgs", per_round(static_cast<double>(x.msgs)), "count");
  }
  js.add("solvers.sparse_cg.iters", c.cg_iters, "count");

  // Predictor gap: modeled seconds per operation of the predicted span
  // against the closed form.
  const Prediction& pr = c.prediction;
  const auto ps = tot(pr.span);
  const double ops = static_cast<double>(ps.calls) * pr.ops_per_call;
  const double measured = ops > 0 ? ps.modeled_s / ops : 0.0;
  const double predicted = pr.op_seconds;
  js.add("metrics.predictor_rel_err", std::abs(measured - predicted) / predicted, "ratio");
  js.add("trace.overhead_s", c.rounds.wall_s - ra.wall_s, "s");
}

int run_main(const Args& args) {
  const auto all = workloads();
  const auto w = std::find_if(all.begin(), all.end(),
                              [&](const Workload& x) { return x.name == args.workload; });
  if (w == all.end()) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  RunOpts o;
  o.seed = args.seed;
  o.workers = args.workers;
  o.deadlock_detection = args.detector;
  std::vector<std::string> failures;
  const auto run_phase = [&](RunOpts ro, bool traced_run) {
    Phase ph;
    w->run(ro, traced_run, ph);
    for (auto& f : verify(*w, ph)) {
      failures.push_back(f);
    }
    return ph;
  };
  JsonMetrics js;
  long attempted = 0;
  bool correct = true;
  if (args.trace == 0) {
    o.seconds = args.seconds;
    Phase a = run_phase(o, false);
    attempted = static_cast<long>(a.rounds.rounds) * a.ops_per_round;
    js.add("wall_s", a.rounds.wall_s, "s");
    js.add("setup_s", a.rounds.setup_end, "s");
    js.add("peak_rss_mb", a.rounds.rss_mb, "MB");
    js.add("modeled_s", a.rounds.makespan, "s");
    js.add("msgs", static_cast<double>(a.rounds.first_sum.msgs), "count");
    js.add("wire_mb", static_cast<double>(a.rounds.first_sum.bytes) / 1e6, "MB");
  } else {
    o.seconds = args.seconds / 3.0;
    Phase a = run_phase(o, false);
    RunOpts off = o;
    off.deadlock_detection = false;
    Phase b = run_phase(off, false);
    Phase c = run_phase(o, true);
    // Tracing and the detector must not move a single modeled number, and
    // the spans must account for every message the machine sent.
    for (const Phase* x : {&b, &c}) {
      if (x->rounds.makespan != a.rounds.makespan ||
          x->rounds.first_sum.msgs != a.rounds.first_sum.msgs ||
          x->rounds.first_sum.bytes != a.rounds.first_sum.bytes) {
        failures.push_back("modeled figures differ between traced/detector-off and default runs");
      }
    }
    if (c.tracer->total_msgs() != c.stats.totals().msgs_sent) {
      failures.push_back("spans miss messages: " + std::to_string(c.tracer->total_msgs()) +
                         " of " + std::to_string(c.stats.totals().msgs_sent));
    }
    attempted = static_cast<long>(a.rounds.rounds) * a.ops_per_round +
                static_cast<long>(b.rounds.rounds) * b.ops_per_round +
                static_cast<long>(c.rounds.rounds) * c.ops_per_round;
    layer_metrics(a, b, c, js);
  }
  for (const auto& f : failures) {
    std::cerr << "CHECK FAILED: " << f << "\n";
    correct = false;
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": 0"
            << ", \"metrics\": " << js.str() << "}" << std::endl;
  return 0;
}

/// Every check must accept the true output of a tiny run and reject a copy
/// with one value perturbed.
int selftest() {
  int bad = 0;
  for (const Workload& w : workloads()) {
    RunOpts o;
    o.tiny = true;
    o.seconds = 0.0;  // one round
    o.seed = 7;
    Phase ph;
    w.run(o, false, ph);
    (void)verify(w, ph);  // fills the shared outputs
    for (const CheckDef& c : w.checks) {
      const std::string pass = c.check(ph.out);
      Outputs broken = ph.out;
      c.perturb(broken);
      const std::string fail = c.check(broken);
      const bool ok = pass.empty() && !fail.empty();
      bad += ok ? 0 : 1;
      std::cout << (ok ? "ok   " : "FAIL ") << w.name << " / " << c.name
                << (pass.empty() ? "" : "  (true output rejected: " + pass + ")")
                << (fail.empty() ? "  (perturbed output accepted)" : "  rejects: " + fail)
                << "\n";
    }
  }
  std::cout << (bad == 0 ? "selftest passed" : "selftest FAILED") << std::endl;
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    return args.selftest ? selftest() : run_main(args);
  } catch (const std::exception& e) {
    std::cerr << "kali_perfbench: " << e.what() << "\n";
    return 1;
  }
}
