// The three workloads. Each drives the served database over loopback from
// at most four load threads (connections plus the appender):
//
//  snb_short_reads     3 connections, prepared SQ1/SQ2/SQ3/SQ4/SQ7 in equal
//                      shares, closed loop; open-loop update stream.
//  operator_scans      2 connections of ad-hoc Figure 2 operator SQL, SQ5,
//                      SQ6 and a range-index BETWEEN, closed loop; a third
//                      connection of prepared SQ1/SQ4 open loop at a fixed
//                      rate; open-loop update stream.
//  ingest_under_reads  closed-loop update stream at full speed with
//                      compaction and standing queries; one connection of
//                      prepared SQ1/SQ4 open loop at a fixed rate.
//
// After the measured window the update stream stops and one connection
// runs a quiesced pass over point reads, SQ3 and the scan templates, every
// reply checked. It supplies the figures a workload's live traffic lacks
// or cannot measure steadily, so every workload reports every metric.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "layers.h"
#include "net/client.h"

namespace e2e {

using namespace idf;

namespace {

constexpr double kWarmupSeconds = 1.0;
// Traced run: measured time alternates between untraced and traced slices
// of this length; the latency ratio between them is the tracing overhead.
constexpr double kSliceSeconds = 0.5;
// In a traced slice, one request in this many is paired with in-process
// replays (encode/decode and the QueryService call).
constexpr int kTraceEvery = 4;
// SQ1/SQ4 replies are all checked; of the others, one in this many.
constexpr int kCheckEvery = 4;
constexpr int kBusyRetries = 50;

// Open-loop update stream: one batch per table every tick.
constexpr auto kStreamTick = std::chrono::milliseconds(10);
constexpr size_t kTickKnows = 5, kTickPosts = 10, kTickComments = 15;  // 3.5k rows/s
// Closed-loop ingest: ~64-row batches per table.
constexpr size_t kIngestKnows = 32, kIngestPosts = 64, kIngestComments = 64;
// Open-loop point reads beside the scans and beside the ingest stream.
constexpr double kReadsPerSecond = 2000;

// Quiesced pass sizes. 23 rounds of the 9 scan templates leave more than
// ten samples beyond the p95.
constexpr int kProbeScanRounds = 23;
constexpr int kProbeCheckRounds = 2;
constexpr int kProbeSq3 = 100;
constexpr int kProbeReads = 40000;
constexpr int kProbeBurst = 2000;
constexpr auto kProbePause = std::chrono::milliseconds(100);

const Tpl kShortReads[] = {Tpl::kSq1, Tpl::kSq2, Tpl::kSq3, Tpl::kSq4, Tpl::kSq7};
// Nine scan templates in equal shares: with an odd count the median scan
// falls inside one template's latency cluster, not in the gap between two.
const Tpl kScans[] = {Tpl::kJoinAgg, Tpl::kRangeFilter, Tpl::kGroupAgg,
                      Tpl::kProjection, Tpl::kScan, Tpl::kEqFilter,
                      Tpl::kSq5, Tpl::kSq6, Tpl::kBetween};

const char* TableName(Table t) {
  switch (t) {
    case Table::kKnows:
      return "knows";
    case Table::kPost:
      return "post";
    case Table::kComment:
      return "comment";
    default:
      return "?";
  }
}

struct Window {
  Clock::time_point begin, end;
  bool traced_run = false;
  bool In(Clock::time_point t) const { return t >= begin && t < end; }
  bool Traced(Clock::time_point t) const {
    return traced_run && In(t) &&
           static_cast<int64_t>(MicrosBetween(begin, t) / (kSliceSeconds * 1e6)) % 2 == 1;
  }
};

// One thread's results, merged after the threads join.
struct Samples {
  std::vector<double> read_us, sq3_us, scan_us;
  std::vector<double> read_traced_us, read_untraced_us;
  std::vector<double> wire_overhead_us, encode_us, decode_us, reply_bytes;
  std::vector<double> lag_ms;
  std::vector<double> append_us;
  std::map<std::string, std::vector<double>> append_us_by_table;
  std::vector<std::pair<uint64_t, Clock::time_point>> append_starts;  // epoch, call start
  std::vector<LoggedBatch> appended;  // every batch sent, in order
  uint64_t rows_appended = 0;
  // Completion time of the last read, scan and append that started in the
  // window: rates divide by the time measured up to it.
  Clock::time_point read_end, scan_end, append_end;
  uint64_t attempted = 0, failed = 0;
  std::vector<Check> checks;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Merge(Samples&& o) {
    auto cat = [](std::vector<double>& a, std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(read_us, o.read_us);
    cat(sq3_us, o.sq3_us);
    cat(scan_us, o.scan_us);
    cat(read_traced_us, o.read_traced_us);
    cat(read_untraced_us, o.read_untraced_us);
    cat(wire_overhead_us, o.wire_overhead_us);
    cat(encode_us, o.encode_us);
    cat(decode_us, o.decode_us);
    cat(reply_bytes, o.reply_bytes);
    cat(lag_ms, o.lag_ms);
    cat(append_us, o.append_us);
    for (auto& [k, v] : o.append_us_by_table) cat(append_us_by_table[k], v);
    append_starts.insert(append_starts.end(), o.append_starts.begin(), o.append_starts.end());
    appended.insert(appended.end(), o.appended.begin(), o.appended.end());
    rows_appended += o.rows_appended;
    read_end = std::max(read_end, o.read_end);
    scan_end = std::max(scan_end, o.scan_end);
    append_end = std::max(append_end, o.append_end);
    attempted += o.attempted;
    failed += o.failed;
    for (Check& c : o.checks) checks.push_back(std::move(c));
    for (std::string& e : o.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
  }
};

// Everything the load threads share.
struct Shared {
  Env& env;
  const Options& opt;
  Window window;
  InprocHandles inproc;
  Tracer* tracer = nullptr;  // traced run only
  std::atomic<bool> stop_stream{false};
};

// One wire connection with the prepared templates prepared on it.
class Conn {
 public:
  static std::unique_ptr<Conn> Open(uint16_t port, std::string* err) {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      *err = "connect: " + client.status().ToString();
      return nullptr;
    }
    auto conn = std::unique_ptr<Conn>(new Conn(std::move(*client)));
    for (Tpl t : kShortReads) {
      auto prep = conn->client_->Prepare(TplSql(t));
      if (!prep.ok()) {
        *err = std::string("prepare ") + TplName(t) + ": " + prep.status().ToString();
        return nullptr;
      }
      conn->handles_[t] = prep->handle;
    }
    return conn;
  }

  // One request; BUSY replies are retried (their wait counts in the
  // request's latency).
  bool Run(Tpl t, const std::vector<int64_t>& params, net::RowsReply* reply,
           std::string* err) {
    for (int attempt = 0; attempt <= kBusyRetries; ++attempt) {
      Result<net::RowsReply> r = IsPrepared(t)
                                     ? client_->Execute(handles_.at(t), ParamValues(params))
                                     : client_->Query(RenderSql(t, params));
      if (r.ok()) {
        *reply = std::move(*r);
        return true;
      }
      if (!r.status().IsCapacityError()) {
        *err = std::string(TplName(t)) + ": " + r.status().ToString();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *err = std::string(TplName(t)) + ": BUSY after retries";
    return false;
  }

 private:
  explicit Conn(std::unique_ptr<net::Client> client) : client_(std::move(client)) {}
  std::unique_ptr<net::Client> client_;
  std::map<Tpl, uint64_t> handles_;
};

void Keep(Samples& s, Tpl t, const std::vector<int64_t>& params, const net::RowsReply& reply) {
  Check c;
  c.tpl = t;
  c.params = params;
  c.epoch = reply.epoch;
  c.nrows = reply.rows.size();
  if (IsLargeReply(t)) {
    c.digest = MultisetDigest(reply.rows);
  } else {
    const int key = OrderKeyColumn(t);
    for (const Row& row : reply.rows) {
      c.row_digests.push_back(RowDigest(row));
      if (key >= 0) c.sort_keys.push_back(row[key]);
    }
  }
  s.checks.push_back(std::move(c));
}

// Pairs a traced wire request with in-process replays of its layers: the
// reply re-encoded and decoded, and the same statement and parameters
// through QueryService. The round trip is the root span.
void TraceRequest(Shared& sh, Tracer::Buffer* buf, Tpl t, const std::vector<int64_t>& params,
                  const net::RowsReply& reply, Clock::time_point start,
                  Clock::time_point end, Samples& s) {
  Tracer& tracer = *sh.tracer;
  const uint64_t req = tracer.NextRequestId();
  const int root = buf->Add(std::string("wire.") + TplName(t), req, -1, start, end);

  const Clock::time_point e0 = Clock::now();
  const std::string payload = net::EncodeOkRows(reply.epoch, *reply.schema, reply.rows);
  const Clock::time_point e1 = Clock::now();
  Result<net::RowsReply> decoded = net::DecodeOkRows(payload);
  const Clock::time_point e2 = Clock::now();
  buf->Add("net.encode", req, root, e0, e1);
  buf->Add("net.decode", req, root, e1, e2);
  s.encode_us.push_back(MicrosBetween(e0, e1));
  s.decode_us.push_back(MicrosBetween(e1, e2));
  s.reply_bytes.push_back(static_cast<double>(payload.size()));
  ++s.attempted;
  if (!decoded.ok()) s.Fail("decode: " + decoded.status().ToString());

  const Clock::time_point q0 = Clock::now();
  QueryResult qr = RunInProcess(sh.env, sh.inproc, t, params);
  const Clock::time_point q1 = Clock::now();
  ++s.attempted;
  if (!qr.ok()) {
    s.Fail(std::string("in-process ") + TplName(t) + ": " + qr.status.ToString());
    return;
  }
  const int svc = buf->Add("service.call", req, root, q0, q1);
  const auto queued = q0 + std::chrono::microseconds(qr.queue_micros);
  buf->Add("service.queue", req, svc, q0, queued);
  buf->Add("service.exec", req, svc, queued, queued + std::chrono::microseconds(qr.exec_micros));
  s.wire_overhead_us.push_back(MicrosBetween(start, end) - MicrosBetween(q0, q1));
}

// A closed-loop client: cycles through `mix` (equal shares, each client
// from its own offset), sends a statement, waits for the reply, repeats
// until the window ends.
void ClosedLoopClient(Shared& sh, int id, Conn& conn, const std::vector<Tpl>& mix,
                      Samples& s) {
  std::string err;
  Tracer::Buffer* buf = sh.tracer != nullptr ? sh.tracer->NewBuffer() : nullptr;
  Random64 rng(sh.opt.seed * 1000003 + static_cast<uint64_t>(id) + 1);
  uint64_t n = 0;
  size_t next = static_cast<size_t>(id) * mix.size() / 3;
  net::RowsReply reply;
  while (Clock::now() < sh.window.end) {
    const Tpl t = mix[next++ % mix.size()];
    const std::vector<int64_t> params = DrawParams(t, rng, *sh.env.universe);
    const Clock::time_point start = Clock::now();
    const bool ok = conn.Run(t, params, &reply, &err);
    const Clock::time_point end = Clock::now();
    ++s.attempted;
    if (!ok) {
      s.Fail(err);
      continue;
    }
    if (t == Tpl::kSq1 || t == Tpl::kSq4 || ++n % kCheckEvery == 0) Keep(s, t, params, reply);
    if (!sh.window.In(start)) continue;
    const double us = MicrosBetween(start, end);
    if (IsPrepared(t)) {
      s.read_us.push_back(us);
      s.read_end = end;
      if (t == Tpl::kSq3) s.sq3_us.push_back(us);
      if (sh.window.traced_run) {
        (sh.window.Traced(start) ? s.read_traced_us : s.read_untraced_us).push_back(us);
      }
    } else {
      s.scan_us.push_back(us);
      s.scan_end = end;
    }
    if (sh.window.Traced(start) && rng.Uniform(kTraceEvery) == 0) {
      TraceRequest(sh, buf, t, params, reply, start, end, s);
    }
  }
}

// Appends the stream's next batch of `n` for `table` through QueryService
// and logs it with the epoch the commit produced (there is one appender,
// so the epoch read right after the call is that batch's). The oracle
// generates the rows again from the log after the run.
void AppendBatch(Shared& sh, Table table, size_t n, Samples& s) {
  const RowVec rows = NextBatch(*sh.env.stream, table, n);
  const Clock::time_point t0 = Clock::now();
  Status st = sh.env.service->Append(TableName(table), rows);
  const Clock::time_point t1 = Clock::now();
  ++s.attempted;
  s.appended.push_back({table, n, 0, st.ok()});
  if (!st.ok()) {
    s.Fail(std::string("append ") + TableName(table) + ": " + st.ToString());
    return;
  }
  const uint64_t epoch = sh.env.service->epoch();
  s.appended.back().epoch = epoch;
  Universe& u = *sh.env.universe;
  if (table == Table::kPost) u.latest_post = rows.back()[0].AsInt64();
  if (table == Table::kComment) u.latest_comment = rows.back()[0].AsInt64();
  s.append_starts.emplace_back(epoch, t0);
  if (!sh.window.In(t0)) return;
  const double us = MicrosBetween(t0, t1);
  s.append_us.push_back(us);
  s.append_us_by_table[TableName(table)].push_back(us);
  s.rows_appended += rows.size();
  s.append_end = t1;
}

// The update stream. Open loop: one batch per table every tick, with the
// generator's lateness recorded. Closed loop: back-to-back ~64-row batches.
void Appender(Shared& sh, bool open_loop, Samples& s) {
  Clock::time_point due = Clock::now();
  while (!sh.stop_stream.load()) {
    if (open_loop) {
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      if (sh.window.In(due)) s.lag_ms.push_back(MicrosBetween(due, now) / 1000);
      due += kStreamTick;
      AppendBatch(sh, Table::kKnows, kTickKnows, s);
      AppendBatch(sh, Table::kPost, kTickPosts, s);
      AppendBatch(sh, Table::kComment, kTickComments, s);
    } else {
      AppendBatch(sh, Table::kKnows, kIngestKnows, s);
      AppendBatch(sh, Table::kPost, kIngestPosts, s);
      AppendBatch(sh, Table::kComment, kIngestComments, s);
    }
  }
}

// Open-loop SQ1/SQ4 reader at a fixed rate. Each read is timed from its
// due time, so a stall also counts against the reads queued behind it.
// With `recent_posts`, half of the SQ4 ids are among the newest posts.
void OpenLoopReader(Shared& sh, Conn& conn, bool recent_posts, Samples& s) {
  std::string err;
  Tracer::Buffer* buf = sh.tracer != nullptr ? sh.tracer->NewBuffer() : nullptr;
  Random64 rng(sh.opt.seed * 1000003 + 77);
  const auto interval = std::chrono::nanoseconds(static_cast<int64_t>(1e9 / kReadsPerSecond));
  const Clock::time_point first = Clock::now();
  net::RowsReply reply;
  for (int64_t k = 0;; ++k) {
    const Clock::time_point due = first + k * interval;
    if (due >= sh.window.end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const Tpl t = k % 2 == 0 ? Tpl::kSq1 : Tpl::kSq4;
    std::vector<int64_t> params = DrawParams(t, rng, *sh.env.universe);
    if (recent_posts && t == Tpl::kSq4 && rng.Uniform(2) == 0) {
      params[0] = sh.env.universe->latest_post.load() - static_cast<int64_t>(rng.Uniform(kIngestPosts));
    }
    const bool ok = conn.Run(t, params, &reply, &err);
    const Clock::time_point end = Clock::now();
    ++s.attempted;
    if (!ok) {
      s.Fail(err);
      continue;
    }
    Keep(s, t, params, reply);
    if (!sh.window.In(due)) continue;
    const double us = MicrosBetween(due, end);
    s.read_us.push_back(us);
    s.read_end = end;
    s.lag_ms.push_back(MicrosBetween(due, sent) / 1000);
    if (sh.window.traced_run) {
      (sh.window.Traced(due) ? s.read_traced_us : s.read_untraced_us).push_back(us);
    }
    if (sh.window.Traced(due) && rng.Uniform(kTraceEvery) == 0) {
      TraceRequest(sh, buf, t, params, reply, sent, end, s);
    }
  }
}

// What the quiesced pass runs, in this order.
struct PassPlan {
  int sq3 = 0;
  int scan_rounds = 0;  // rounds of the scan templates
  int point_reads = 0;  // SQ1/SQ4 alternating
};

// The quiesced pass: the stream has stopped, one connection runs the
// plan; every reply is kept for the oracle. The two durations cover the
// point reads and the scans.
void QuiescedPass(Shared& sh, const PassPlan& plan, Samples& s, double* read_seconds,
                  double* scan_seconds) {
  std::string err;
  std::unique_ptr<Conn> conn = Conn::Open(sh.env.server->port(), &err);
  if (conn == nullptr) {
    ++s.attempted;
    s.Fail(err);
    return;
  }
  Random64 rng(sh.opt.seed * 1000003 + 99);
  net::RowsReply reply;
  auto run = [&](Tpl t, std::vector<double>* lat) {
    const std::vector<int64_t> params = DrawParams(t, rng, *sh.env.universe);
    const Clock::time_point start = Clock::now();
    const bool ok = conn->Run(t, params, &reply, &err);
    const Clock::time_point end = Clock::now();
    ++s.attempted;
    if (!ok) {
      s.Fail(err);
      return;
    }
    lat->push_back(MicrosBetween(start, end));
    Keep(s, t, params, reply);
  };
  for (int i = 0; i < plan.sq3; ++i) run(Tpl::kSq3, &s.sq3_us);
  const Clock::time_point scans_start = Clock::now();
  for (int r = 0; r < plan.scan_rounds; ++r) {
    for (Tpl t : kScans) run(t, &s.scan_us);
  }
  *scan_seconds = MicrosBetween(scans_start, Clock::now()) / 1e6;
  // The timed point reads follow an untimed eighth as many (still
  // checked): with that warm-up their p50 varied less between runs. They
  // then run in bursts with pauses between, so that they sample the
  // host over a few seconds rather than one: back to back, the p50 of
  // successive 2000-read blocks ranged from 21 to 35 us within a run.
  std::vector<double> warmup_us;
  for (int i = 0; i < plan.point_reads / 8; ++i) {
    run(i % 2 == 0 ? Tpl::kSq1 : Tpl::kSq4, &warmup_us);
  }
  double busy_us = 0;
  for (int i = 0; i < plan.point_reads; ++i) {
    if (i > 0 && i % kProbeBurst == 0) std::this_thread::sleep_for(kProbePause);
    const Clock::time_point t0 = Clock::now();
    run(i % 2 == 0 ? Tpl::kSq1 : Tpl::kSq4, &s.read_us);
    busy_us += MicrosBetween(t0, Clock::now());
  }
  *read_seconds = busy_us / 1e6;
}

double P(const std::vector<double>& v, double q) { return Percentile(v, q); }

// Peak resident set of the process so far (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

}  // namespace

bool RunWorkload(const Options& opt, Env& env, RunResult* out, std::string* error) {
  const std::string& w = opt.workload;
  const bool short_reads = w == "snb_short_reads";
  const bool scans = w == "operator_scans";
  const bool ingest = w == "ingest_under_reads";
  if (!short_reads && !scans && !ingest) {
    *error = "unknown workload '" + w + "'";
    return false;
  }
  QueryService& svc = *env.service;

  Shared sh{env, opt, {}, {}, nullptr, {}};

  // Standing queries on the ingest workload: two subscriptions share one
  // arrangement; callbacks record when each epoch reached the subscriber.
  std::mutex view_mu;
  std::vector<std::pair<uint64_t, Clock::time_point>> view_events;
  std::vector<ViewSubscriptionPtr> subs;
  if (ingest) {
    auto on_publish = [&](const ViewSnapshot& snap) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(view_mu);
      view_events.emplace_back(snap.epoch, now);
    };
    for (const char* sql : {"SELECT creatorId, COUNT(*) AS n FROM comment GROUP BY creatorId",
                            "SELECT creatorId, COUNT(*) AS n FROM comment GROUP BY creatorId",
                            "SELECT id, creatorId FROM post WHERE length > 100"}) {
      Result<ViewSubscriptionPtr> sub = svc.Subscribe(sql, on_publish);
      if (!sub.ok()) {
        *error = "subscribe: " + sub.status().ToString();
        return false;
      }
      subs.push_back(*sub);
    }
    Status st = svc.EnableCompaction();
    if (!st.ok()) {
      *error = "compaction: " + st.ToString();
      return false;
    }
  }

  std::unique_ptr<Tracer> tracer;
  const Clock::time_point start = Clock::now();
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(start);
    sh.tracer = tracer.get();
  }
  sh.window.begin = start + std::chrono::microseconds(static_cast<int64_t>(kWarmupSeconds * 1e6));
  sh.window.end = sh.window.begin + std::chrono::microseconds(static_cast<int64_t>(opt.seconds * 1e6));
  sh.window.traced_run = opt.trace;

  // Counters cover the load phase (prepare, connect, warm-up, window). The
  // in-process Prepare of each template is its first, so the plan cache
  // counts it as a miss and each connection's Prepare after it as a hit.
  svc.ResetStats();
  for (Tpl t : kShortReads) {
    Result<PreparedInfo> p = svc.Prepare(TplSql(t));
    if (!p.ok()) {
      *error = std::string("prepare ") + TplName(t) + ": " + p.status().ToString();
      return false;
    }
    sh.inproc[t] = p->handle;
  }
  const uint64_t epoch_before = svc.epoch();
  // A MultiIndexedTable appends on the executor of the session that built
  // it, so post's range-index upkeep is counted there, not in Stats().
  const uint64_t range_us_before = env.session->metrics().range_maintenance_us();

  const std::vector<Tpl> read_mix(std::begin(kShortReads), std::end(kShortReads));
  const std::vector<Tpl> scan_mix(std::begin(kScans), std::end(kScans));
  // Connections open one after another: the server hands them to its two
  // io loops round-robin, so which connections share a loop is the same in
  // every run. On operator_scans the point-read connection is the third:
  // it shares a loop with the first scan connection, so a scan that holds
  // that loop delays the point reads queued behind it.
  const int num_conns = ingest ? 1 : 3;
  std::vector<std::unique_ptr<Conn>> conns(num_conns + 1);
  for (int c = 1; c <= num_conns; ++c) {
    conns[c] = Conn::Open(env.server->port(), error);
    if (conns[c] == nullptr) return false;
  }
  std::vector<Samples> samples(4);
  std::vector<std::thread> clients;
  std::thread appender([&] { Appender(sh, /*open_loop=*/!ingest, samples[0]); });
  if (short_reads) {
    for (int c = 1; c <= 3; ++c) {
      clients.emplace_back([&, c] { ClosedLoopClient(sh, c, *conns[c], read_mix, samples[c]); });
    }
  } else if (scans) {
    for (int c : {1, 2}) {
      clients.emplace_back([&, c] { ClosedLoopClient(sh, c, *conns[c], scan_mix, samples[c]); });
    }
    clients.emplace_back([&] { OpenLoopReader(sh, *conns[3], /*recent_posts=*/false, samples[3]); });
  } else {
    clients.emplace_back([&] { OpenLoopReader(sh, *conns[1], /*recent_posts=*/true, samples[1]); });
  }

  // Stats() at every slice boundary: the replan ratio is taken over the
  // untraced slices only, since a traced slice's paired in-process
  // executions reuse the plan the wire request just re-lowered.
  std::vector<ServiceStats> boundaries;
  const auto slice = std::chrono::microseconds(static_cast<int64_t>(kSliceSeconds * 1e6));
  for (Clock::time_point t = sh.window.begin; opt.trace && t < sh.window.end; t += slice) {
    std::this_thread::sleep_until(t);
    boundaries.push_back(svc.Stats());
  }
  std::this_thread::sleep_until(sh.window.end);
  const ServiceStats stats = svc.Stats();
  const uint64_t range_us = env.session->metrics().range_maintenance_us() - range_us_before;
  boundaries.push_back(stats);
  uint64_t untraced_execs = 0, untraced_replans = 0;
  for (size_t i = 0; i + 1 < boundaries.size(); i += 2) {
    untraced_execs += boundaries[i + 1].prepared_executions - boundaries[i].prepared_executions;
    untraced_replans += boundaries[i + 1].prepared_replans - boundaries[i].prepared_replans;
  }
  const uint64_t epochs = svc.epoch() - epoch_before;
  for (std::thread& t : clients) t.join();
  conns.clear();

  Samples all;
  Random64 rng(opt.seed * 1000003 + 123);
  if (opt.trace) {
    ReplayLayers(env, sh.inproc, *tracer, rng, &out->per_layer, &out->notes, &all.attempted,
                 &all.failed);
  }
  sh.stop_stream = true;
  appender.join();
  svc.DisableCompaction();
  for (const ViewSubscriptionPtr& sub : subs) (void)svc.Unsubscribe(sub);

  PassPlan plan;
  plan.point_reads = short_reads ? 0 : kProbeReads;
  plan.sq3 = short_reads ? 0 : kProbeSq3;
  plan.scan_rounds = scans ? kProbeCheckRounds : kProbeScanRounds;
  Samples probe;
  double probe_read_seconds = 0, probe_scan_seconds = 0;
  QuiescedPass(sh, plan, probe, &probe_read_seconds, &probe_scan_seconds);

  Samples live;
  for (Samples& s : samples) live.Merge(std::move(s));
  // Each end-to-end figure comes from the live window where the workload's
  // traffic has it steadily, from the quiesced pass otherwise. The open-loop
  // point reads beside the scans and beside the ingest stream are printed,
  // but their read_* figures come from the quiesced pass. Beside the scans
  // the reads wait behind the scans on their shared io loop and fall
  // seconds behind their schedule; that head-of-line blocking is printed,
  // not gated. Beside the ingest stream their tail swung by 18-78%
  // between runs.
  auto rate = [&](size_t n, Clock::time_point last) {
    return last > sh.window.begin ? static_cast<double>(n) * 1e6 / MicrosBetween(sh.window.begin, last)
                                  : 0.0;
  };
  const std::vector<double> reads = short_reads ? live.read_us : probe.read_us;
  const double read_qps = short_reads
                              ? rate(live.read_us.size(), live.read_end)
                              : static_cast<double>(probe.read_us.size()) / probe_read_seconds;
  const std::vector<double> sq3 = short_reads ? live.sq3_us : probe.sq3_us;
  const std::vector<double> scan_us = scans ? live.scan_us : probe.scan_us;
  const double scan_qps = scans ? rate(live.scan_us.size(), live.scan_end)
                                : static_cast<double>(probe.scan_us.size()) / probe_scan_seconds;
  if (!short_reads) {
    out->notes.push_back(std::string("live open-loop point reads (2000/s) beside the ") +
                         (scans ? "scans, on an io loop shared with one scan connection"
                                : "ingest stream") +
                         ": p50 " +
                         std::to_string(P(live.read_us, 0.5)) + " us, p99 " +
                         std::to_string(P(live.read_us, 0.99)) + " us, " +
                         std::to_string(live.read_us.size()) + " samples");
  }
  all.Merge(std::move(live));
  all.Merge(std::move(probe));

  // The peak is read before the oracle exists: during the run the process
  // holds the served database, the load generators, digests of the kept
  // replies and the latency samples, but no second copy of the data.
  out->end_to_end["peak_rss_mb"] = PeakRssMb();

  // Oracle: every kept reply against the brute-force answer at its epoch.
  const std::unique_ptr<Oracle> oracle = BuildOracle(opt, all.appended);
  for (const Check& c : all.checks) {
    std::string why;
    if (!oracle->Verify(c, &why)) {
      ++out->mismatches;
      all.Fail(std::string("oracle mismatch on ") + TplName(c.tpl) + " at epoch " +
               std::to_string(c.epoch) + ": " + why);
    }
  }
  out->attempted = all.attempted;
  out->failed = all.failed;
  out->errors = all.errors;

  auto& e = out->end_to_end;
  e["success_rate"] = 1.0 - static_cast<double>(out->failed) / static_cast<double>(out->attempted);
  e["read_qps"] = read_qps;
  e["read_p50_us"] = P(reads, 0.50);
  e["read_p95_us"] = P(reads, 0.95);
  e["sq3_p50_us"] = P(sq3, 0.50);
  e["scan_qps"] = scan_qps;
  e["scan_p50_us"] = P(scan_us, 0.50);
  e["scan_p95_us"] = P(scan_us, 0.95);
  e["append_rows_per_s"] = rate(all.rows_appended, all.append_end);
  e["append_p50_us"] = P(all.append_us, 0.50);
  e["append_p99_us"] = P(all.append_us, 0.99);
  out->notes.push_back("samples: reads " + std::to_string(reads.size()) +
                       (short_reads ? " (live)" : " (quiesced)") + ", sq3 " +
                       std::to_string(sq3.size()) + (short_reads ? " (live)" : " (quiesced)") +
                       ", scans " + std::to_string(scan_us.size()) +
                       (scans ? " (live)" : " (quiesced)") + ", appends " +
                       std::to_string(all.append_us.size()) + ", checks " +
                       std::to_string(all.checks.size()));

  if (opt.trace) {
    auto& m = out->per_layer;
    const std::map<std::string, double> self = tracer->MedianSelfTimes();
    m["net.wire_overhead_us"] = P(all.wire_overhead_us, 0.5);
    m["net.encode_us"] = P(all.encode_us, 0.5);
    m["net.decode_us"] = P(all.decode_us, 0.5);
    m["net.reply_bytes.p50"] = P(all.reply_bytes, 0.5);
    m["net.reply_bytes.max"] = P(all.reply_bytes, 1.0);
    m["net.busy_rejections"] = static_cast<double>(stats.net_busy_rejections);
    m["service.queue_us.p50"] = static_cast<double>(stats.queue.p50_micros);
    m["service.queue_us.p99"] = static_cast<double>(stats.queue.p99_micros);
    m["service.exec_us.p50"] = static_cast<double>(stats.exec.p50_micros);
    m["service.exec_us.p99"] = static_cast<double>(stats.exec.p99_micros);
    const uint64_t prepares = stats.plan_cache_hits + stats.plan_cache_misses;
    m["service.plan_cache_hit_ratio"] =
        prepares == 0 ? 0 : static_cast<double>(stats.plan_cache_hits) / static_cast<double>(prepares);
    m["service.replan_ratio"] =
        untraced_execs == 0 ? 0
                            : static_cast<double>(untraced_replans) / static_cast<double>(untraced_execs);
    for (const char* table : {"knows", "post", "comment"}) {
      m[std::string("indexed.append_us.") + table] = P(all.append_us_by_table[table], 0.5);
    }
    m["indexed.compactions"] = static_cast<double>(stats.compactions_run);
    m["indexed.bytes_reclaimed"] = static_cast<double>(stats.bytes_reclaimed);
    const double batches = static_cast<double>(std::max<uint64_t>(1, epochs));
    // Post batches are a third of the epochs (one batch per table per round).
    m["indexed.range_maintenance_us"] = static_cast<double>(range_us) / std::max(1.0, batches / 3);
    m["view.rows_maintained"] = static_cast<double>(stats.rows_maintained_incrementally) / batches;
    std::map<uint64_t, Clock::time_point> started(all.append_starts.begin(), all.append_starts.end());
    std::vector<double> propagation;
    for (const auto& [epoch, when] : view_events) {
      auto it = started.find(epoch);
      if (it != started.end() && sh.window.In(it->second)) {
        propagation.push_back(MicrosBetween(it->second, when));
      }
    }
    m["view.propagation_us"] = P(propagation, 0.5);
    m["gen.lag_ms"] = P(all.lag_ms, 0.99);
    const double untraced = P(all.read_untraced_us, 0.5);
    m["trace.overhead_pct"] =
        untraced > 0 ? 100.0 * (P(all.read_traced_us, 0.5) / untraced - 1.0) : 0;
    for (const auto& [name, us] : self) {
      out->notes.push_back("self time " + name + ": " + std::to_string(us) + " us");
    }
    if (!opt.trace_path.empty() && !tracer->Write(opt.trace_path)) {
      out->notes.push_back("could not write spans to " + opt.trace_path);
    }
  }
  return true;
}

}  // namespace e2e
