// serve_paged and serve_ram: SQL-text fuzzy queries parsed by ParseSelect
// and served by a QueryServer, first under an open-loop Poisson schedule
// at a fixed rate, then in a closed loop with nproc - 1 queries
// outstanding from the one submitting thread. The two workloads differ
// only in where the graded sources come from: a per-query Catalog that
// builds PagedColorSources over a column file (serve_paged), or in-RAM
// VectorSources prepared during set-up and recycled (serve_ram).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "catalog/catalog.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "middleware/join.h"
#include "middleware/optimizer.h"
#include "server/query_server.h"
#include "sim/workload.h"
#include "sql/parser.h"
#include "storage/paged_source.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzydb::Algorithm;
using fuzzydb::GradedSource;
using fuzzydb::Query;
using fuzzydb::Result;
using fuzzydb::ServedResult;
using fuzzydb::SourceResolver;
using fuzzydb::Status;

// The open-loop arrival schedule is part of the traffic definition, like
// the rate: every seed sees the same arrival pattern, so parent and change
// are compared on the same bursts, and --seed varies the data, the query
// mix and the targets.
constexpr uint64_t kScheduleSeed = 0x5eed5c4edULL;

// Share of a pass in the open loop; the rest is the closed loop. Both
// shares give the open loop over the 100 samples p90 needs at 30 s.
constexpr double kPagedOpenShare = 0.8;
constexpr double kRamOpenShare = 0.6;

// Palette entries the serve_paged atoms match against. Cold queries are
// distinct cache keys whatever the palette size (see PagedStream); 8
// entries give 28 unordered pairs of answers and keep the reference phase
// to 8 source builds.
constexpr size_t kPagedPalette = 8;

// ---------------------------------------------------------- query stream --

enum class Shape { kAnd2, kWeighted2, kOr2, kAnd3, kJoin };

size_t AtomCount(Shape s) {
  switch (s) {
    case Shape::kAnd3:
      return 3;
    case Shape::kJoin:
      return 1;
    default:
      return 2;
  }
}

bool IsMinConjunction(Shape s) {
  return s == Shape::kAnd2 || s == Shape::kAnd3;
}

struct QuerySpec {
  Shape shape = Shape::kAnd2;
  size_t k = 10;
  bool hot = false;
  /// serve_ram: which of the run's datasets the atoms resolve against.
  size_t dataset = 0;
  std::string sql;
  /// The statement the serial reference runs. Queries with equal
  /// reference SQL and dataset must have equal answers, so they share one
  /// reference.
  std::string reference_sql;
};

std::string Atom(const char* attribute, const std::string& target) {
  std::string atom = attribute;
  atom += " ~ '";
  atom += target;
  atom += "'";
  return atom;
}

// atoms[i] is the text of the i-th atomic predicate.
std::string RenderSql(Shape shape, size_t k, int weights,
                      const std::array<std::string, 3>& atoms) {
  std::string where;
  switch (shape) {
    case Shape::kAnd2:
      where = atoms[0] + " AND " + atoms[1];
      break;
    case Shape::kWeighted2:
      where = atoms[0] + " AND " + atoms[1] +
              (weights == 0 ? " WEIGHTS (7, 3)" : " WEIGHTS (4, 6)");
      break;
    case Shape::kOr2:
      where = atoms[0] + " OR " + atoms[1];
      break;
    case Shape::kAnd3:
      where = atoms[0] + " AND " + atoms[1] + " AND " + atoms[2];
      break;
    case Shape::kJoin:
      where = atoms[0];
      break;
  }
  return "SELECT TOP " + std::to_string(k) + " FROM images WHERE " + where;
}

// A query kind: the hot query, or a cold shape with its k.
struct Card {
  bool hot = false;
  Shape shape = Shape::kAnd2;
  size_t k = 10;
};

// Deals `count` cards from repeated shuffles of `deck`. Every block of
// deck.size() queries holds the deck's exact mix, so runs differ in order,
// targets and data but not in how many queries of each kind they issue:
// drawing each kind independently moved the closed-loop throughput by
// about 15% from seed to seed.
std::vector<Card> Deal(std::vector<Card> deck, size_t count,
                       fuzzydb::Rng* rng) {
  std::vector<Card> out;
  out.reserve(count + deck.size());
  while (out.size() < count) {
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng->NextBounded(i)]);
    }
    out.insert(out.end(), deck.begin(), deck.end());
  }
  out.resize(count);
  return out;
}

// Adds `copies` cold cards of `shape` at each k in {5, 10}.
void AddCold(std::vector<Card>* deck, Shape shape, size_t copies) {
  for (size_t c = 0; c < copies; ++c) {
    deck->push_back({false, shape, 5});
    deck->push_back({false, shape, 10});
  }
}

// serve_paged: every atom is a color match against one of `targets`
// palette entries; the entries decide the answer. 5 of every 17 queries
// (29%) repeat the hot query. Every cold query is a distinct cache key: its
// atoms name the entry plus the query's index ("c3.17" is entry 3), so the
// hot query is the only repeat the server's cache sees, while the serial
// reference runs the statement with bare entry names.
std::vector<QuerySpec> PagedStream(uint64_t seed, size_t count,
                                   size_t targets) {
  fuzzydb::Rng rng(seed ^ 0x9a9edULL);
  auto color = [](uint64_t t, const std::string& suffix) {
    std::string target = "c";
    target += std::to_string(t);
    target += suffix;
    return Atom("Color", target);
  };
  // Two distinct entries; unordered shapes list them in ascending order so
  // commuted duplicates share a reference.
  auto pair = [&](bool ordered) {
    uint64_t a = rng.NextBounded(targets);
    uint64_t b = (a + 1 + rng.NextBounded(targets - 1)) % targets;
    if (!ordered && b < a) std::swap(a, b);
    return std::make_pair(a, b);
  };
  auto atoms = [&](std::pair<uint64_t, uint64_t> p, const std::string& suffix) {
    return std::array<std::string, 3>{color(p.first, suffix),
                                      color(p.second, suffix), ""};
  };
  QuerySpec hot;
  hot.shape = Shape::kAnd2;
  hot.k = 10;
  hot.hot = true;
  hot.sql = RenderSql(hot.shape, hot.k, 0, atoms(pair(false), ""));
  hot.reference_sql = hot.sql;

  std::vector<Card> deck(5, Card{true});
  for (Shape shape : {Shape::kAnd2, Shape::kWeighted2, Shape::kOr2}) {
    AddCold(&deck, shape, 2);
  }
  std::vector<QuerySpec> out;
  out.reserve(count);
  const std::vector<Card> cards = Deal(std::move(deck), count, &rng);
  for (size_t i = 0; i < cards.size(); ++i) {
    if (cards[i].hot) {
      out.push_back(hot);
      continue;
    }
    QuerySpec q;
    q.shape = cards[i].shape;
    q.k = cards[i].k;
    const int weights = static_cast<int>(rng.NextBounded(2));
    const std::pair<uint64_t, uint64_t> entries =
        pair(q.shape == Shape::kWeighted2);
    q.sql = RenderSql(q.shape, q.k, weights,
                      atoms(entries, "." + std::to_string(i)));
    q.reference_sql = RenderSql(q.shape, q.k, weights, atoms(entries, ""));
    out.push_back(std::move(q));
  }
  return out;
}

// serve_ram: atoms resolve by attribute (A, B, C, and the join J) against
// one of `datasets` datasets; the target only makes each cold query a
// distinct cache key. Of every 40 queries 24 repeat the hot query and 8 are
// three-atom min-conjunctions at k=10, so latency_p50_ms falls among cache
// hits (ParseSelect and Submit) and latency_p90_ms among the conjunctions
// (planner and middleware). One k keeps the conjunctions one latency mode:
// NRA at k=5 and k=10 forms two, and p90 must not sit between them.
std::vector<QuerySpec> RamStream(uint64_t seed, size_t count,
                                 size_t datasets) {
  fuzzydb::Rng rng(seed ^ 0x7a3ULL);
  auto atoms = [](Shape shape, const std::string& target) {
    if (shape == Shape::kJoin) {
      return std::array<std::string, 3>{Atom("J", target), "", ""};
    }
    return std::array<std::string, 3>{Atom("A", target), Atom("B", target),
                                      Atom("C", target)};
  };
  QuerySpec hot;
  hot.shape = Shape::kAnd2;
  hot.k = 10;
  hot.hot = true;
  hot.sql = RenderSql(hot.shape, hot.k, 0, atoms(hot.shape, "hot"));
  hot.reference_sql = RenderSql(hot.shape, hot.k, 0, atoms(hot.shape, "ref"));

  std::vector<Card> deck(24, Card{true});
  deck.insert(deck.end(), 8, Card{false, Shape::kAnd3, 10});
  for (Shape shape :
       {Shape::kAnd2, Shape::kWeighted2, Shape::kOr2, Shape::kJoin}) {
    AddCold(&deck, shape, 1);
  }
  std::vector<QuerySpec> out;
  out.reserve(count);
  const std::vector<Card> cards = Deal(std::move(deck), count, &rng);
  for (size_t i = 0; i < cards.size(); ++i) {
    if (cards[i].hot) {
      out.push_back(hot);
      continue;
    }
    QuerySpec q;
    q.shape = cards[i].shape;
    q.k = cards[i].k;
    q.dataset = rng.NextBounded(datasets);
    const int weights = static_cast<int>(rng.NextBounded(2));
    std::string target = "t";
    target += std::to_string(i);
    q.sql = RenderSql(q.shape, q.k, weights, atoms(q.shape, target));
    q.reference_sql = RenderSql(q.shape, q.k, weights, atoms(q.shape, "ref"));
    out.push_back(std::move(q));
  }
  return out;
}

// -------------------------------------------------------------- sources --

struct Interval {
  Clock::time_point start;
  Clock::time_point end;
};

/// One query's sources and resolver, plus what a traced pass records
/// about the calls into them. Outlives the query's ticket.
struct QueryCtx {
  virtual ~QueryCtx() = default;

  SourceResolver resolver;

  // Traced passes only. A resolver call is Submit's when it runs on the
  // submitting thread before Submit returned; any other call is the
  // worker's (on a workerless pool the two cannot be told apart and all
  // calls count as Submit's).
  std::thread::id submit_thread;
  bool submit_returned = false;
  std::mutex mu;
  std::vector<Interval> submit_resolves;
  std::vector<Interval> worker_resolves;
  std::vector<Interval> builds;  ///< PagedColorSource::Create calls.

  void ClearTrace() {
    submit_returned = false;
    submit_resolves.clear();
    worker_resolves.clear();
    builds.clear();
  }
};

/// The resolver a traced pass hands to Submit: times every call into the
/// query's own resolver and files it as Submit-side or worker-side.
SourceResolver TracedResolver(QueryCtx* ctx) {
  return [ctx](const Query& atom) -> Result<GradedSource*> {
    const Clock::time_point t0 = Clock::now();
    Result<GradedSource*> out = ctx->resolver(atom);
    const Clock::time_point t1 = Clock::now();
    const bool submit_side = std::this_thread::get_id() == ctx->submit_thread &&
                             !ctx->submit_returned;
    std::lock_guard<std::mutex> lock(ctx->mu);
    (submit_side ? ctx->submit_resolves : ctx->worker_resolves)
        .push_back({t0, t1});
    return out;
  };
}

class Backend {
 public:
  virtual ~Backend() = default;
  /// Objects per graded list (what Submit sizes the plan with).
  virtual size_t n() const = 0;
  virtual std::unique_ptr<QueryCtx> Acquire(const QuerySpec& q,
                                            bool traced) = 0;
  /// Called once the query's ticket has completed.
  virtual void Release(std::unique_ptr<QueryCtx> ctx) = 0;
  /// Resolver for a serial reference run of `q`, its sources restarted.
  virtual SourceResolver ReferenceResolver(const QuerySpec& q) = 0;
};

/// serve_paged: a fresh Catalog per query whose "Color" factory builds a
/// PagedColorSource (one sequential paged pass + an N-entry sort) for the
/// target named in the atom.
class PagedBackend final : public Backend {
 public:
  PagedBackend(const fuzzydb::storage::PagedEmbeddingStore* store,
               std::vector<std::vector<double>> palette)
      : store_(store), palette_(std::move(palette)) {
    double sq = 0.0;
    for (double s : Spectrum()) sq += s * s;
    max_distance_ = 2.0 * std::sqrt(sq);  // diameter of the row box
  }

  size_t n() const override { return store_->size(); }

  std::unique_ptr<QueryCtx> Acquire(const QuerySpec&, bool traced) override {
    auto ctx = std::make_unique<PagedCtx>();
    QueryCtx* raw = ctx.get();
    Status st = ctx->catalog.RegisterAttribute(
        "Color",
        [this, raw, traced](const std::string& target)
            -> Result<std::unique_ptr<GradedSource>> {
          const Clock::time_point t0 = Clock::now();
          Result<std::unique_ptr<GradedSource>> src = Build(target);
          if (traced) {
            std::lock_guard<std::mutex> lock(raw->mu);
            raw->builds.push_back({t0, Clock::now()});
          }
          return src;
        });
    (void)st;  // a fresh catalog has no attributes to collide with
    ctx->resolver = ctx->catalog.AsResolver();
    return ctx;
  }

  void Release(std::unique_ptr<QueryCtx> ctx) override { ctx.reset(); }

  SourceResolver ReferenceResolver(const QuerySpec&) override {
    for (auto& [target, src] : reference_) src->RestartSorted();
    return [this](const Query& atom) -> Result<GradedSource*> {
      auto it = reference_.find(atom.target());
      if (it == reference_.end()) {
        Result<std::unique_ptr<GradedSource>> src = Build(atom.target());
        if (!src.ok()) return src.status();
        it = reference_.emplace(atom.target(), std::move(*src)).first;
      }
      return it->second.get();
    };
  }

 private:
  struct PagedCtx final : QueryCtx {
    fuzzydb::Catalog catalog;
  };

  Result<std::unique_ptr<GradedSource>> Build(const std::string& target) {
    // "c<entry>", optionally followed by ".<query>" (see PagedStream).
    size_t index = palette_.size();
    if (target.size() > 1 && target[0] == 'c') {
      char* end = nullptr;
      index = std::strtoul(target.c_str() + 1, &end, 10);
      if (*end != '\0' && *end != '.') index = palette_.size();
    }
    if (index >= palette_.size()) {
      return Status::NotFound("no palette entry '" + target + "'");
    }
    Result<fuzzydb::storage::PagedColorSource> src =
        fuzzydb::storage::PagedColorSource::Create(
            store_, palette_[index], max_distance_, "Color(" + target + ")");
    if (!src.ok()) return src.status();
    return std::unique_ptr<GradedSource>(
        new fuzzydb::storage::PagedColorSource(std::move(*src)));
  }

  const fuzzydb::storage::PagedEmbeddingStore* store_;
  std::vector<std::vector<double>> palette_;
  double max_distance_ = 1.0;
  std::map<std::string, std::unique_ptr<GradedSource>> reference_;
};

/// serve_ram: per-query copies of a dataset's three VectorSources plus
/// the E22 join over the first two, prepared during set-up and restarted
/// for reuse once their query completes. A run holds several datasets so
/// that its figures average over them instead of following one draw.
class RamBackend final : public Backend {
 public:
  explicit RamBackend(std::vector<fuzzydb::Workload> datasets)
      : datasets_(std::move(datasets)), free_(datasets_.size()) {}

  /// Prepares `per_dataset` contexts for every dataset (the set-up work
  /// of this workload).
  Status Prepare(size_t per_dataset) {
    for (size_t d = 0; d < datasets_.size(); ++d) {
      for (size_t i = 0; i < per_dataset; ++i) {
        Result<std::unique_ptr<QueryCtx>> ctx = Make(d);
        if (!ctx.ok()) return ctx.status();
        free_[d].push_back(std::move(*ctx));
      }
    }
    return Status::OK();
  }

  size_t n() const override { return datasets_.front().n(); }
  size_t built_while_timed() const { return built_while_timed_; }

  std::unique_ptr<QueryCtx> Acquire(const QuerySpec& q, bool) override {
    std::vector<std::unique_ptr<QueryCtx>>& pool = free_[q.dataset];
    if (pool.empty()) {
      // More queries in flight than were prepared: build one on the
      // submit path (counted and printed; should stay 0 below capacity).
      ++built_while_timed_;
      Result<std::unique_ptr<QueryCtx>> ctx = Make(q.dataset);
      return ctx.ok() ? std::move(*ctx) : nullptr;
    }
    std::unique_ptr<QueryCtx> ctx = std::move(pool.back());
    pool.pop_back();
    return ctx;
  }

  void Release(std::unique_ptr<QueryCtx> ctx) override {
    Restart(ctx.get());
    ctx->ClearTrace();
    const size_t d = static_cast<RamCtx*>(ctx.get())->dataset;
    free_[d].push_back(std::move(ctx));
  }

  // References run after the timed passes, on a prepared context of the
  // query's dataset (every context is back in its free list by then).
  SourceResolver ReferenceResolver(const QuerySpec& q) override {
    QueryCtx* ctx = free_[q.dataset].front().get();
    Restart(ctx);
    return ctx->resolver;
  }

 private:
  struct RamCtx final : QueryCtx {
    size_t dataset = 0;
    std::vector<fuzzydb::VectorSource> sources;  // never resized: join
    std::unique_ptr<fuzzydb::TopKJoinSource> join;  // points into it
  };

  Result<std::unique_ptr<QueryCtx>> Make(size_t dataset) const {
    auto ctx = std::make_unique<RamCtx>();
    ctx->dataset = dataset;
    Result<std::vector<fuzzydb::VectorSource>> sources =
        datasets_[dataset].MakeSources();
    if (!sources.ok()) return sources.status();
    ctx->sources = std::move(*sources);
    Result<fuzzydb::TopKJoinSource> join = fuzzydb::TopKJoinSource::Create(
        &ctx->sources[0], &ctx->sources[1], fuzzydb::MinRule(), "join");
    if (!join.ok()) return join.status();
    ctx->join = std::make_unique<fuzzydb::TopKJoinSource>(std::move(*join));
    RamCtx* raw = ctx.get();
    ctx->resolver = [raw](const Query& atom) -> Result<GradedSource*> {
      const std::string& a = atom.attribute();
      if (a == "A") return &raw->sources[0];
      if (a == "B") return &raw->sources[1];
      if (a == "C") return &raw->sources[2];
      if (a == "J") return raw->join.get();
      return Status::NotFound("unknown attribute " + a);
    };
    return std::unique_ptr<QueryCtx>(std::move(ctx));
  }

  static void Restart(QueryCtx* ctx) {
    auto* ram = static_cast<RamCtx*>(ctx);
    for (fuzzydb::VectorSource& s : ram->sources) s.RestartSorted();
    ram->join->RestartSorted();
  }

  std::vector<fuzzydb::Workload> datasets_;
  std::vector<std::vector<std::unique_ptr<QueryCtx>>> free_;  // per dataset
  size_t built_while_timed_ = 0;
};

// ------------------------------------------------------------------ pass --

/// A finished (or refused) query.
struct Outcome {
  size_t spec = 0;
  bool open_loop = false;
  size_t arrival = 0;  ///< Open loop: index in the schedule.
  bool ticketed = false;  ///< Submit admitted it and its ticket completed.
  bool rejected = false;  ///< Submit refused it.
  double latency_ms = 0.0;  ///< From the due time.
  Clock::time_point completed_at;
  ServedResult served;
  double exec_ms = -1.0;  ///< Traced: first worker resolve -> completion.
};

struct PassResult {
  std::vector<Outcome> outcomes;
  uint64_t submitted = 0;
  std::vector<double> lag_ms;
  std::vector<double> open_latency_ms;  ///< Completed, by arrival order.
  double throughput_qps = 0.0;
  fuzzydb::ServerStats server;
  fuzzydb::CacheStats cache;
};

class Pass {
 public:
  Pass(Backend* backend, const std::vector<QuerySpec>* stream,
       size_t* next_spec, fuzzydb::ThreadPool* pool, Tracer* tracer)
      : backend_(backend), stream_(stream), next_spec_(next_spec),
        pool_(pool), tracer_(tracer) {}

  /// `open_share` of `seconds` in the open loop at `rate_qps`, the rest in
  /// the closed loop.
  PassResult Run(double rate_qps, double open_share, double seconds) {
    fuzzydb::QueryServerOptions options;
    options.pool = pool_;
    fuzzydb::QueryServer server(options);
    server_ = &server;

    const double open_s = seconds * open_share;
    const std::vector<Clock::duration> offsets =
        PoissonOffsets(rate_qps, open_s, kScheduleSeed);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    result_.lag_ms = RunSchedule(
        offsets, start,
        [this](size_t i, Clock::time_point due) { Issue(true, i, due); },
        [this] { Reap(false); });
    server.Drain();
    Reap(true);

    std::vector<double> by_arrival(offsets.size(), -1.0);
    for (const Outcome& o : result_.outcomes) {
      if (o.open_loop && o.ticketed) by_arrival[o.arrival] = o.latency_ms;
    }
    for (double l : by_arrival) {
      if (l >= 0.0) result_.open_latency_ms.push_back(l);
    }

    // Closed loop: keep nproc - 1 queries outstanding.
    const size_t outstanding = std::max<size_t>(pool_->executors() - 1, 1);
    const Clock::time_point closed_start = Clock::now();
    const Clock::time_point closed_end =
        closed_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds - open_s));
    while (Clock::now() < closed_end) {
      while (pending_.size() < outstanding && Clock::now() < closed_end) {
        Issue(false, 0, Clock::now());
      }
      if (Reap(false) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    server.Drain();
    Reap(true);
    size_t in_window = 0;
    for (const Outcome& o : result_.outcomes) {
      if (!o.open_loop && o.ticketed && o.completed_at <= closed_end) {
        ++in_window;
      }
    }
    result_.throughput_qps =
        static_cast<double>(in_window) /
        std::chrono::duration<double>(closed_end - closed_start).count();
    result_.server = server.stats();
    result_.cache = server.cache_stats();
    server_ = nullptr;
    return std::move(result_);
  }

 private:
  struct InFlight {
    size_t spec = 0;
    bool open_loop = false;
    size_t arrival = 0;
    Clock::time_point due, parse_start, submit_start, submit_end;
    std::shared_ptr<fuzzydb::Ticket<ServedResult>> ticket;
    std::unique_ptr<QueryCtx> ctx;
  };

  void Issue(bool open_loop, size_t arrival, Clock::time_point due) {
    InFlight q;
    q.spec = (*next_spec_)++ % stream_->size();
    q.open_loop = open_loop;
    q.arrival = arrival;
    q.due = due;
    q.ctx = backend_->Acquire((*stream_)[q.spec], tracer_ != nullptr);
    q.parse_start = Clock::now();
    Result<fuzzydb::SelectStatement> stmt =
        fuzzydb::ParseSelect((*stream_)[q.spec].sql);
    q.submit_start = Clock::now();
    ++result_.submitted;
    if (!stmt.ok() || q.ctx == nullptr) {
      Refused(std::move(q), false,
              stmt.ok() ? Status::Internal("no source set") : stmt.status());
      return;
    }
    SourceResolver resolver = q.ctx->resolver;
    if (tracer_ != nullptr) {
      q.ctx->submit_thread = std::this_thread::get_id();
      resolver = TracedResolver(q.ctx.get());
    }
    Result<fuzzydb::Submission> sub =
        server_->Submit(stmt->query, stmt->k, std::move(resolver));
    q.submit_end = Clock::now();
    q.ctx->submit_returned = true;
    if (!sub.ok()) {
      Refused(std::move(q), true, sub.status());
      return;
    }
    q.ticket = sub->ticket;
    pending_.push_back(std::move(q));
  }

  // A query that never got a ticket: refused by Submit (`rejected`), or
  // failed before it (parse error).
  void Refused(InFlight q, bool rejected, Status why) {
    Outcome o;
    o.spec = q.spec;
    o.open_loop = q.open_loop;
    o.arrival = q.arrival;
    o.rejected = rejected;
    o.served.status = std::move(why);
    if (q.ctx != nullptr) backend_->Release(std::move(q.ctx));
    result_.outcomes.push_back(std::move(o));
  }

  // Collects completed queries (all of them when `all`, after a Drain).
  size_t Reap(bool all) {
    size_t reaped = 0;
    for (size_t i = 0; i < pending_.size();) {
      if (!all && !pending_[i].ticket->done()) {
        ++i;
        continue;
      }
      Complete(std::move(pending_[i]));
      pending_[i] = std::move(pending_.back());
      pending_.pop_back();
      ++reaped;
    }
    return reaped;
  }

  void Complete(InFlight q) {
    const ServedResult& served = q.ticket->Wait();
    Outcome o;
    o.spec = q.spec;
    o.open_loop = q.open_loop;
    o.arrival = q.arrival;
    o.ticketed = true;
    o.completed_at = served.completed_at;
    o.latency_ms = Ms(served.completed_at - q.due);
    o.served = served;
    if (tracer_ != nullptr) o.exec_ms = EmitSpans(q, served);
    backend_->Release(std::move(q.ctx));
    result_.outcomes.push_back(std::move(o));
  }

  // Records the query's spans; returns its execution time (ms) or -1 for
  // a cache hit that never reached a worker.
  double EmitSpans(const InFlight& q, const ServedResult& served) {
    const uint64_t id = q.spec;
    const QueryCtx& ctx = *q.ctx;
    const int64_t root =
        tracer_->Record("request", -1, id, q.due, served.completed_at);
    tracer_->Record("sql.parse", root, id, q.parse_start, q.submit_start);
    const int64_t submit = tracer_->Record("server.submit", root, id,
                                           q.submit_start, q.submit_end);
    std::vector<std::pair<Interval, int64_t>> resolves;
    for (const Interval& r : ctx.submit_resolves) {
      resolves.emplace_back(
          r, tracer_->Record("server.resolve", submit, id, r.start, r.end));
    }
    double exec_ms = -1.0;
    if (!ctx.worker_resolves.empty()) {
      const Clock::time_point first = ctx.worker_resolves.front().start;
      tracer_->Record("server.queue_wait", root, id, q.submit_end,
                      std::max(first, q.submit_end));
      const int64_t exec = tracer_->Record("server.exec", root, id, first,
                                           served.completed_at);
      exec_ms = Ms(served.completed_at - first);
      for (const Interval& r : ctx.worker_resolves) {
        resolves.emplace_back(
            r, tracer_->Record("server.resolve", exec, id, r.start, r.end));
      }
    }
    for (const Interval& b : ctx.builds) {
      int64_t parent = root;
      for (const auto& [r, span] : resolves) {
        if (r.start <= b.start && b.end <= r.end) parent = span;
      }
      tracer_->Record("storage.source_build", parent, id, b.start, b.end);
    }
    return exec_ms;
  }

  Backend* backend_;
  const std::vector<QuerySpec>* stream_;
  size_t* next_spec_;
  fuzzydb::ThreadPool* pool_;
  Tracer* tracer_;
  fuzzydb::QueryServer* server_ = nullptr;
  std::vector<InFlight> pending_;
  PassResult result_;
};

// ----------------------------------------------------------- reference --

bool SameAnswer(const fuzzydb::TopKResult& got,
                const fuzzydb::TopKResult& want) {
  if (got.items.size() != want.items.size()) return false;
  for (size_t i = 0; i < got.items.size(); ++i) {
    if (got.items[i].id != want.items[i].id ||
        got.items[i].grade != want.items[i].grade) {
      return false;
    }
  }
  return got.cost.sorted == want.cost.sorted &&
         got.cost.random == want.cost.random;
}

/// Serial ExecuteTopK of the plan the server would choose, one per
/// distinct reference statement and dataset.
class References {
 public:
  References(Backend* backend, bool corrupt)
      : backend_(backend), corrupt_(corrupt) {}

  Result<const fuzzydb::TopKResult*> Get(const QuerySpec& q) {
    const auto key = std::make_pair(q.reference_sql, q.dataset);
    auto it = cache_.find(key);
    if (it != cache_.end()) return &it->second;
    Result<fuzzydb::SelectStatement> stmt =
        fuzzydb::ParseSelect(q.reference_sql);
    if (!stmt.ok()) return stmt.status();
    Result<fuzzydb::PlanChoice> plan = fuzzydb::ChoosePlan(
        *stmt->query, backend_->n(), stmt->k, fuzzydb::CostModel{});
    if (!plan.ok()) return plan.status();
    fuzzydb::ExecutorOptions options;
    options.algorithm = plan->algorithm;
    options.combined_period = plan->combined_period;
    Result<fuzzydb::ExecutionResult> run = fuzzydb::ExecuteTopK(
        stmt->query, backend_->ReferenceResolver(q), stmt->k, options);
    if (!run.ok()) return run.status();
    if (!run->completion.ok()) return run->completion;
    fuzzydb::TopKResult answer = std::move(run->topk);
    if (corrupt_ && cache_.empty() && !answer.items.empty()) {
      answer.items[0].grade = std::nextafter(answer.items[0].grade, 2.0);
    }
    return &cache_.emplace(key, std::move(answer)).first->second;
  }

 private:
  Backend* backend_;
  bool corrupt_;
  std::map<std::pair<std::string, size_t>, fuzzydb::TopKResult> cache_;
};

// ------------------------------------------------------------- metrics --

struct ErrorCounts {
  uint64_t attempted = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  uint64_t partial = 0;
  uint64_t mismatched = 0;
  std::string first_error;
  uint64_t total() const { return rejected + failed + partial + mismatched; }
};

Status CheckAnswers(const std::vector<QuerySpec>& stream,
                    const std::vector<const PassResult*>& passes,
                    References* refs, ErrorCounts* errors) {
  for (const PassResult* pass : passes) {
    errors->attempted += pass->submitted;
    for (const Outcome& o : pass->outcomes) {
      const Status& bad =
          o.served.status.ok() ? o.served.completion : o.served.status;
      if (!bad.ok() && errors->first_error.empty()) {
        errors->first_error = bad.ToString();
      }
      if (o.rejected) {
        ++errors->rejected;
      } else if (!o.served.status.ok()) {
        ++errors->failed;
      } else if (!o.served.completion.ok()) {
        ++errors->partial;
      } else {
        Result<const fuzzydb::TopKResult*> want =
            refs->Get(stream[o.spec]);
        if (!want.ok()) return want.status();
        if (!SameAnswer(o.served.topk, **want)) ++errors->mismatched;
      }
    }
  }
  return Status::OK();
}

void PrintLatency(const char* label, const PassResult& pass) {
  const std::vector<double>& lat = pass.open_latency_ms;
  const size_t n = lat.size();
  std::printf(
      "%s open loop: %zu completed, p50 %.3f ms, p90 %.3f ms (%zu samples "
      "beyond p90; highest percentile with >= 10 beyond: p%g), generator "
      "lag p90 %.3f ms\n",
      label, n, Percentile(lat, 50), Percentile(lat, 90),
      SamplesBeyond(n, 90), HighestSupportedPercentile(n),
      Percentile(pass.lag_ms, 90));
  const double backlog = BacklogRatio(lat);
  std::printf(
      "%s backlog check: median latency of the last tenth / first tenth = "
      "%.3f (%s)\n",
      label, backlog,
      backlog > 2.0 ? "GROWING: offered rate exceeds capacity" : "steady");
  std::printf("%s closed loop: %.3f queries/s\n", label, pass.throughput_qps);
}

const char* PlanKey(Algorithm a) {
  switch (a) {
    case Algorithm::kThreshold:
      return "ta";
    case Algorithm::kNoRandomAccess:
      return "nra";
    case Algorithm::kNaive:
      return "naive";
    case Algorithm::kFagin:
      return "fagin";
    case Algorithm::kDisjunctionShortcut:
      return "shortcut";
    case Algorithm::kCombined:
      return "ca";
    default:
      return "other";
  }
}

/// Per-layer metrics of the traced pass.
void AddServeLayers(const std::vector<QuerySpec>& stream, size_t n,
                    const PassResult& pass, const std::vector<Span>& spans,
                    RunResult* out) {
  const double submitted = static_cast<double>(pass.submitted);
  std::vector<double> parse_us = DurationsOf(spans, "sql.parse");
  for (double& v : parse_us) v *= 1000.0;
  out->Add("sql.parse_us.p50", Percentile(parse_us, 50), "us");

  const std::vector<double> submit_self = SelfTimesOf(spans, "server.submit");
  const std::vector<double> queue = DurationsOf(spans, "server.queue_wait");
  const std::vector<double> exec = DurationsOf(spans, "server.exec");
  out->Add("server.submit_self_ms.p50", Percentile(submit_self, 50), "ms");
  out->Add("server.submit_self_ms.p90", Percentile(submit_self, 90), "ms");
  out->Add("server.queue_wait_ms.p50", Percentile(queue, 50), "ms");
  out->Add("server.queue_wait_ms.p90", Percentile(queue, 90), "ms");
  out->Add("server.exec_ms.p50", Percentile(exec, 50), "ms");
  out->Add("server.exec_ms.p90", Percentile(exec, 90), "ms");
  const double lookups =
      static_cast<double>(pass.cache.hits + pass.cache.misses);
  out->Add("server.cache_hit_rate",
           Ratio(static_cast<double>(pass.cache.hits), lookups), "ratio");
  out->Add("server.reject_rate",
           Ratio(static_cast<double>(pass.server.rejected_queue_full +
                                     pass.server.rejected_cost),
                 static_cast<double>(pass.server.submitted)),
           "ratio");
  out->Add("server.generator_lag_ms.p90", Percentile(pass.lag_ms, 90), "ms");
  std::printf(
      "server: %llu submitted, %llu served from cache, cache %llu hits / "
      "%.0f lookups, %llu rejected (queue full) + %llu (cost)\n",
      static_cast<unsigned long long>(pass.server.submitted),
      static_cast<unsigned long long>(pass.server.served_from_cache),
      static_cast<unsigned long long>(pass.cache.hits), lookups,
      static_cast<unsigned long long>(pass.server.rejected_queue_full),
      static_cast<unsigned long long>(pass.server.rejected_cost));

  const std::vector<double> builds = DurationsOf(spans, "storage.source_build");
  out->Add("storage.source_build_ms.p50", Percentile(builds, 50), "ms");
  out->Add("storage.source_builds_per_query",
           Ratio(static_cast<double>(builds.size()), submitted), "count");

  // Middleware: queries that executed (cache hits never reach it).
  std::vector<double> sorted, random;
  std::map<std::string, double> plans, access, exec_ns;
  double executed = 0.0, t41_sorted = 0.0, t41_bound = 0.0;
  for (const Outcome& o : pass.outcomes) {
    if (!o.ticketed || o.served.from_cache || !o.served.status.ok()) continue;
    const fuzzydb::AccessCost& cost = o.served.topk.cost;
    sorted.push_back(static_cast<double>(cost.sorted));
    random.push_back(static_cast<double>(cost.random));
    const std::string alg = PlanKey(o.served.algorithm_used);
    executed += 1.0;
    plans[alg] += 1.0;
    access[alg] += static_cast<double>(cost.sorted + cost.random);
    if (o.exec_ms >= 0.0) exec_ns[alg] += o.exec_ms * 1e6;
    const QuerySpec& spec = stream[o.spec];
    if (IsMinConjunction(spec.shape)) {
      const double m = static_cast<double>(AtomCount(spec.shape));
      t41_sorted += static_cast<double>(cost.sorted);
      t41_bound += std::pow(static_cast<double>(n), (m - 1.0) / m) *
                   std::pow(static_cast<double>(spec.k), 1.0 / m);
    }
  }
  out->Add("middleware.sorted_per_query.p50", Percentile(sorted, 50), "count");
  out->Add("middleware.random_per_query.p50", Percentile(random, 50), "count");
  for (const char* alg : {"ta", "nra", "naive", "fagin", "shortcut", "ca"}) {
    out->Add(std::string("middleware.plan_share.") + alg,
             Ratio(plans[alg], executed), "ratio");
    out->Add(std::string("middleware.ns_per_access.") + alg,
             Ratio(exec_ns[alg], access[alg]), "ns");
    if (plans[alg] > 0) {
      std::printf(
          "middleware.ns_per_access.%s = %.1f ns = %.0f ns executing / %.0f "
          "accesses over %.0f of %.0f executed queries\n",
          alg, Ratio(exec_ns[alg], access[alg]), exec_ns[alg], access[alg],
          plans[alg], executed);
    }
  }
  out->Add("middleware.theorem41_ratio", Ratio(t41_sorted, t41_bound),
           "ratio");
  std::printf(
      "middleware.theorem41_ratio = %.4f = %.0f sorted accesses / %.1f "
      "(sum of N^((m-1)/m) k^(1/m) over min-conjunctions, N=%zu)\n",
      Ratio(t41_sorted, t41_bound), t41_sorted, t41_bound, n);
}

struct ServeSetup {
  Dataset dataset;  ///< serve_paged only; outlives the backend's sources.
  std::unique_ptr<Backend> backend;
  std::vector<QuerySpec> stream;
  double setup_s = 0.0;
  double rate_qps = 0.0;
  double open_share = 0.0;
};

Result<RunResult> RunServe(const Config& cfg, ServeSetup& setup) {
  const size_t executors = cfg.executors > 0
                               ? cfg.executors
                               : fuzzydb::ThreadPool::HardwareConcurrency();
  fuzzydb::ThreadPool pool(executors, 4096);
  const bool paged = setup.dataset.store != nullptr;
  size_t next_spec = 0;
  RunResult out;
  ErrorCounts errors;
  References refs(setup.backend.get(), cfg.corrupt_reference);
  std::printf("%s: %zu objects per list, open loop at %.1f queries/s for "
              "%.1f s, then %zu outstanding; setup %.4f s\n",
              cfg.workload.c_str(), setup.backend->n(), setup.rate_qps,
              cfg.seconds * setup.open_share * (cfg.trace ? 0.5 : 1.0),
              executors - 1, setup.setup_s);

  const double pass_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  PassResult plain =
      Pass(setup.backend.get(), &setup.stream, &next_spec, &pool, nullptr)
          .Run(setup.rate_qps, setup.open_share, pass_s);
  PrintLatency("untraced", plain);
  std::vector<const PassResult*> passes = {&plain};

  Tracer tracer;
  PassResult traced;
  fuzzydb::storage::BufferPoolStats pool_before, pool_after;
  if (cfg.trace) {
    if (paged) pool_before = setup.dataset.store->pool_stats();
    traced =
        Pass(setup.backend.get(), &setup.stream, &next_spec, &pool, &tracer)
            .Run(setup.rate_qps, setup.open_share, pass_s);
    if (paged) pool_after = setup.dataset.store->pool_stats();
    PrintLatency("traced", traced);
    passes.push_back(&traced);
  }

  // Before the reference phase, whose cached sources are the benchmark's
  // own memory, not the workload's.
  const double peak_rss_mb = PeakRssMb();
  Status checked = CheckAnswers(setup.stream, passes, &refs, &errors);
  if (!checked.ok()) return checked;
  out.attempted = errors.attempted;
  out.failed = errors.total();
  out.correct = errors.mismatched == 0;
  const double error_rate = Ratio(static_cast<double>(errors.total()),
                                  static_cast<double>(errors.attempted));
  std::printf(
      "errors: %llu rejected + %llu failed + %llu partial + %llu mismatched "
      "of %llu attempted (error_rate %.6f)%s%s\n",
      static_cast<unsigned long long>(errors.rejected),
      static_cast<unsigned long long>(errors.failed),
      static_cast<unsigned long long>(errors.partial),
      static_cast<unsigned long long>(errors.mismatched),
      static_cast<unsigned long long>(errors.attempted), error_rate,
      errors.first_error.empty() ? "" : "; first error: ",
      errors.first_error.c_str());

  out.Add("latency_p50_ms", Percentile(plain.open_latency_ms, 50), "ms");
  out.Add("latency_p90_ms", Percentile(plain.open_latency_ms, 90), "ms");
  out.Add("throughput_qps", plain.throughput_qps, "1/s");
  out.Add("success_rate", 1.0 - error_rate, "ratio");
  out.Add("setup_s", setup.setup_s, "s");
  out.Add("peak_rss_mb", peak_rss_mb, "MB");

  if (cfg.trace) {
    const std::vector<Span> spans = tracer.spans();
    AddServeLayers(setup.stream, setup.backend->n(), traced, spans, &out);
    if (paged) {
      const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
      const double misses =
          static_cast<double>(pool_after.misses - pool_before.misses);
      const double q = static_cast<double>(traced.submitted);
      out.Add("storage.pool_hit_rate", Ratio(hits, hits + misses), "ratio");
      out.Add("storage.disk_bytes_per_query",
              Ratio(static_cast<double>(pool_after.bytes_read_disk -
                                        pool_before.bytes_read_disk),
                    q),
              "B");
      out.Add("storage.evictions_per_query",
              Ratio(static_cast<double>(pool_after.evictions -
                                        pool_before.evictions),
                    q),
              "count");
      const Dataset& d = setup.dataset;
      out.Add("storage.ingest_rows_per_s",
              Ratio(static_cast<double>(d.store->size()), d.append_s),
              "1/s");
      out.Add("storage.finish_s", d.finish_s, "s");
      out.Add("storage.open_ms", d.open_s * 1000.0, "ms");
    }
    const double base = Percentile(plain.open_latency_ms, 50);
    const double with = Percentile(traced.open_latency_ms, 50);
    out.Add("trace.overhead_frac", Ratio(with, base) - 1.0, "ratio");
    std::printf("trace.overhead_frac = %.4f (traced p50 %.3f ms vs untraced "
                "%.3f ms), %zu spans\n",
                Ratio(with, base) - 1.0, with, base, spans.size());
    const std::string path =
        cfg.data_dir + "/trace_" + cfg.workload + ".jsonl";
    if (!tracer.WriteJsonl(path, spans.empty() ? Clock::now()
                                               : spans.front().start)) {
      return Status::Internal("cannot write " + path);
    }
  }
  return out;
}

// How many queries a stream needs: the open-loop schedule plus a generous
// allowance for the closed loop; the pass wraps around if it runs out.
size_t StreamLength(const Config& cfg, double rate_qps) {
  return static_cast<size_t>(rate_qps * cfg.seconds) + 20'000;
}

}  // namespace

Result<RunResult> RunServePaged(const Config& cfg) {
  ServeSetup setup;
  const std::string path = cfg.data_dir + "/serve_paged.fzdb";
  Result<Dataset> data = BuildDataset(path, cfg.paged_rows,
                                      cfg.paged_pool_bytes, cfg.seed,
                                      cfg.setup_repeats);
  if (!data.ok()) return data.status();
  setup.dataset = std::move(*data);
  setup.setup_s = setup.dataset.setup_s;
  std::vector<std::vector<double>> palette;
  for (size_t t = 0; t < kPagedPalette; ++t) {
    palette.push_back(SpectrumVector(cfg.seed ^ 0xc01025ULL, t));
  }
  setup.backend = std::make_unique<PagedBackend>(setup.dataset.store.get(),
                                                 std::move(palette));
  setup.stream = PagedStream(cfg.seed, StreamLength(cfg, cfg.paged_rate_qps),
                             kPagedPalette);
  setup.rate_qps = cfg.paged_rate_qps;
  setup.open_share = kPagedOpenShare;
  Result<RunResult> out = RunServe(cfg, setup);
  setup.dataset.store->Close();
  std::remove(path.c_str());
  return out;
}

Result<RunResult> RunServeRam(const Config& cfg) {
  ServeSetup setup;
  std::vector<double> times;
  std::unique_ptr<RamBackend> backend;
  for (size_t r = 0; r < std::max<size_t>(cfg.setup_repeats, 1); ++r) {
    backend.reset();
    const Clock::time_point t0 = Clock::now();
    fuzzydb::Rng rng(cfg.seed);
    std::vector<fuzzydb::Workload> datasets;
    for (size_t d = 0; d < cfg.ram_datasets; ++d) {
      datasets.push_back(fuzzydb::IndependentUniform(&rng, cfg.ram_rows, 3));
    }
    backend = std::make_unique<RamBackend>(std::move(datasets));
    Status st = backend->Prepare(cfg.ram_contexts_per_dataset);
    if (!st.ok()) return st;
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  setup.setup_s = Percentile(times, 50);
  const RamBackend& ram = *backend;
  setup.backend = std::move(backend);
  setup.stream = RamStream(cfg.seed, StreamLength(cfg, cfg.ram_rate_qps),
                           cfg.ram_datasets);
  setup.rate_qps = cfg.ram_rate_qps;
  setup.open_share = kRamOpenShare;
  Result<RunResult> out = RunServe(cfg, setup);
  std::printf("source sets built on the submit path: %zu\n",
              ram.built_while_timed());
  return out;
}

}  // namespace perfbench
