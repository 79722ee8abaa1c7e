// Traced layer replays. Every call here goes through a module's public
// functions, so the benchmark measures layers without tracing inside the
// program: the SQL phases by driving Session step by step, the service by
// timing QueryService calls, the indexes by timing lookups directly.
#include "layers.h"

#include <thread>

#include "engine/executor_context.h"
#include "indexed/indexed_rules.h"
#include "sql/logical_plan.h"

namespace e2e {

using namespace idf;

QueryResult RunInProcess(Env& env, const InprocHandles& handles, Tpl t,
                         const std::vector<int64_t>& params) {
  if (IsPrepared(t)) {
    return env.service->ExecutePrepared(handles.at(t), ParamValues(params));
  }
  return env.service->Execute(RenderSql(t, params));
}

namespace {

constexpr int kPointReplays = 15;
constexpr int kScanReplays = 5;
constexpr int kPinSamples = 300;
constexpr int kLookupSamples = 2000;

// Templates whose plans join: their exchange volume is reported.
bool IsJoin(Tpl t) {
  return t == Tpl::kSq3 || t == Tpl::kJoinAgg || t == Tpl::kSq5 || t == Tpl::kSq6;
}

// The Figure 2 operators that filter every row of a table: their
// vectorized-filter batches are reported. (The GROUP BY template filters
// comment as the range filter does; it is left out to stay within the
// per-layer metric budget.)
bool IsFilteredScan(Tpl t) {
  return t == Tpl::kRangeFilter || t == Tpl::kProjection || t == Tpl::kScan;
}

struct Replay {
  double parse_us = 0, optimize_us = 0, lower_us = 0, execute_us = 0;
  double rows_examined_per_row = 0;
  uint64_t vector_batches = 0, morsels = 0, shuffled_bytes = 0, broadcast_bytes = 0;
  uint64_t range_probes = 0, index_scans_avoided = 0;
  std::string plan;
};

// Plans and executes `sql` the way QueryService::Execute does: a fresh
// Session over the pinned snapshot of every registered table. Each phase
// is timed and becomes a child span of `root`; the query's metrics are
// its own (the context is new), never a running total.
Result<Replay> ReplayServicePath(Env& env, const ServiceSnapshot& snap,
                                 const std::string& sql, Tracer::Buffer* buf,
                                 uint64_t req, int root) {
  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec,
                       ExecutorContext::MakeWithPool(env.session->config(),
                                                     env.session->exec().shared_pool()));
  IDF_ASSIGN_OR_RETURN(SessionPtr s, Session::MakeWithContext(exec));
  InstallIndexedExtensions(*s);
  for (const PinnedTable& t : snap.tables) {
    IDF_RETURN_NOT_OK(s->RegisterTable(
        t.table, s->FromPlan(std::make_shared<SnapshotScanNode>(t.primary()))));
  }
  s->metrics().Reset();
  const Clock::time_point t0 = Clock::now();
  IDF_ASSIGN_OR_RETURN(DataFrame df, s->Sql(sql));
  const Clock::time_point t1 = Clock::now();
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, s->OptimizeOnly(df.plan()));
  const Clock::time_point t2 = Clock::now();
  IDF_ASSIGN_OR_RETURN(PhysicalOpPtr physical, s->PlanOptimized(optimized));
  const Clock::time_point t3 = Clock::now();
  IDF_ASSIGN_OR_RETURN(PartitionVec parts, physical->Execute(s->exec()));
  const Clock::time_point t4 = Clock::now();
  buf->Add("sql.parse_analyze", req, root, t0, t1);
  buf->Add("sql.optimize", req, root, t1, t2);
  buf->Add("sql.lower", req, root, t2, t3);
  buf->Add("sql.execute", req, root, t3, t4);

  const QueryMetrics& m = s->metrics();
  Replay r;
  r.parse_us = MicrosBetween(t0, t1);
  r.optimize_us = MicrosBetween(t1, t2);
  r.lower_us = MicrosBetween(t2, t3);
  r.execute_us = MicrosBetween(t3, t4);
  const double rows = static_cast<double>(std::max<size_t>(1, TotalRows(parts)));
  r.rows_examined_per_row =
      static_cast<double>(m.rows_scanned() + m.index_hits()) / rows;
  r.vector_batches = m.vector_batches_evaluated();
  r.morsels = m.morsels_dispatched();
  r.shuffled_bytes = m.shuffled_bytes();
  r.broadcast_bytes = m.broadcast_bytes();
  r.range_probes = m.range_probes();
  r.index_scans_avoided = m.index_scans_avoided();
  r.plan = physical->TreeString();
  return r;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

}  // namespace

void ReplayLayers(Env& env, const InprocHandles& handles, Tracer& tracer,
                  Random64& rng, std::map<std::string, double>* metrics,
                  std::vector<std::string>* plans, uint64_t* attempted,
                  uint64_t* failed) {
  Tracer::Buffer* buf = tracer.NewBuffer();
  std::vector<double> pin_us;
  std::vector<double> range_probes, scans_avoided;
  auto fail = [&](const std::string& what, const Status& st) {
    ++*failed;
    std::fprintf(stderr, "replay %s failed: %s\n", what.c_str(), st.ToString().c_str());
  };

  for (int i = 0; i < kNumTpl; ++i) {
    const Tpl t = static_cast<Tpl>(i);
    const std::string name = TplName(t);
    std::map<std::string, std::vector<double>> v;
    std::vector<double> service_us, session_us;
    const int reps = IsPrepared(t) ? kPointReplays : kScanReplays;
    for (int r = 0; r < reps; ++r) {
      const std::vector<int64_t> params = DrawParams(t, rng, *env.universe);
      const std::string sql = RenderSql(t, params);
      const uint64_t req = tracer.NextRequestId();

      // The service path, phase by phase, over a pin taken now.
      const Clock::time_point p0 = Clock::now();
      const ServiceSnapshot snap = env.service->snapshots().PinAll();
      const Clock::time_point p1 = Clock::now();
      const int root = buf->Add("replay." + name, req, -1, p0, p0);
      buf->Add("service.pin", req, root, p0, p1);
      pin_us.push_back(MicrosBetween(p0, p1));
      ++*attempted;
      Result<Replay> rep = ReplayServicePath(env, snap, sql, buf, req, root);
      buf->End(root, Clock::now());
      if (!rep.ok()) {
        fail(name, rep.status());
        continue;
      }
      v["sql.parse_analyze_us." + name].push_back(rep->parse_us);
      v["sql.optimize_us." + name].push_back(rep->optimize_us);
      v["sql.lower_us." + name].push_back(rep->lower_us);
      v["sql.execute_us." + name].push_back(rep->execute_us);
      v["sql.rows_examined_per_row." + name].push_back(rep->rows_examined_per_row);
      if (IsFilteredScan(t)) {
        v["sql.vector_batches." + name].push_back(static_cast<double>(rep->vector_batches));
      }
      if (IsJoin(t)) {
        v["engine.morsels." + name].push_back(static_cast<double>(rep->morsels));
        v["engine.shuffled_bytes." + name].push_back(static_cast<double>(rep->shuffled_bytes));
        v["engine.broadcast_bytes." + name].push_back(static_cast<double>(rep->broadcast_bytes));
      }
      if (t == Tpl::kBetween) {
        range_probes.push_back(static_cast<double>(rep->range_probes));
        scans_avoided.push_back(static_cast<double>(rep->index_scans_avoided));
      }

      // The same statement on the live Session (what the paper's
      // in-process API pays for it: parse through execute).
      ++*attempted;
      const Clock::time_point s0 = Clock::now();
      Result<DataFrame> df = env.session->Sql(sql);
      Result<RowVec> rows = df.ok() ? env.session->ExecuteCollect(df->plan())
                                    : Result<RowVec>(df.status());
      const Clock::time_point s1 = Clock::now();
      if (!rows.ok()) {
        fail(name + " (live session)", rows.status());
        continue;
      }
      session_us.push_back(MicrosBetween(s0, s1));

      // And through QueryService in-process, as a client's call lands.
      ++*attempted;
      const Clock::time_point q0 = Clock::now();
      QueryResult qr = RunInProcess(env, handles, t, params);
      const Clock::time_point q1 = Clock::now();
      if (!qr.ok()) {
        fail(name + " (service)", qr.status);
        continue;
      }
      service_us.push_back(MicrosBetween(q0, q1));

      if (r == 0) {
        Result<std::string> live_plan = df->Explain();
        plans->push_back("plan " + name + " via QueryService:\n" + rep->plan);
        plans->push_back("plan " + name + " via live Session:\n" +
                         (live_plan.ok() ? *live_plan : live_plan.status().ToString()));
      }
    }
    for (auto& [metric, samples] : v) (*metrics)[metric] = Median(samples);
    const double session = Median(session_us);
    (*metrics)["sql.service_over_session." + name] =
        session > 0 ? Median(service_us) / session : 0;
  }
  (*metrics)["indexed.range_probes"] = Median(range_probes);
  (*metrics)["indexed.index_scans_avoided"] = Median(scans_avoided);

  // Pins under the live stream, spaced so that commits land between them.
  for (int i = 0; i < kPinSamples; ++i) {
    const Clock::time_point p0 = Clock::now();
    (void)env.service->snapshots().PinAll();
    pin_us.push_back(MicrosBetween(p0, Clock::now()));
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  (*metrics)["service.pin_us"] = Median(pin_us);

  // Primary-key lookups on post, half of them on the newest posts.
  Result<IndexedDataFrame> by_id = env.post->Index("id");
  std::vector<double> lookup_us;
  if (by_id.ok()) {
    const IndexedRelationPtr& rel = by_id->relation();
    const Universe& u = *env.universe;
    for (int i = 0; i < kLookupSamples; ++i) {
      const int64_t latest = u.latest_post.load();
      const int64_t key =
          i % 2 == 0 ? latest - static_cast<int64_t>(rng.Uniform(1000))
                     : u.first_post + static_cast<int64_t>(rng.Uniform(
                                          static_cast<uint64_t>(latest - u.first_post + 1)));
      const Clock::time_point l0 = Clock::now();
      RowVec rows = rel->GetRows(Value(key));
      lookup_us.push_back(MicrosBetween(l0, Clock::now()));
      *attempted += 1;
      if (rows.size() != 1) fail("post lookup", Status::Internal("expected one row"));
    }
  } else {
    fail("post index", by_id.status());
  }
  (*metrics)["indexed.lookup_us"] = Median(lookup_us);

  // Chain fragmentation of the relations the stream appends to, each on
  // its non-unique key (post on creatorId: its id chains are one row
  // long). The default compactor rewrites a partition above a mean of 4.
  Result<IndexedDataFrame> by_creator = env.post->Index("creatorId");
  const std::pair<const char*, IndexedRelationPtr> appended[] = {
      {"knows", env.knows->relation()},
      {"comment", env.comment->relation()},
      {"post", by_creator.ok() ? by_creator->relation() : nullptr}};
  for (const auto& [table, rel] : appended) {
    if (rel == nullptr) {
      fail("post creatorId index", by_creator.status());
      continue;
    }
    (*metrics)[std::string("indexed.chain_mean_batch_span.") + table] =
        rel->ChainStats().MeanBatchSpan();
  }
}

}  // namespace e2e
