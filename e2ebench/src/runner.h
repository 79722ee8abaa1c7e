// One benchmark run: set-up of the served SNB database, the workload
// load generators, the quiesced check pass and the traced layer replays.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "indexed/indexed_dataframe.h"
#include "indexed/multi_indexed_table.h"
#include "net/server.h"
#include "service/query_service.h"
#include "snb/update_stream.h"

namespace e2e {

/// SNB scale factor: 10k persons, ~196k knows rows, 120k posts, 180k
/// comments.
constexpr double kScaleFactor = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_path;    // result file (metrics + fingerprint)
  std::string trace_path;  // span file (traced run)
};

/// The served database: generated SNB data loaded into indexed tables,
/// registered with a QueryService that a net::Server serves on loopback.
struct Env {
  idf::SessionPtr session;  // loads the tables; replays SQL over live data
  idf::QueryServicePtr service;
  std::unique_ptr<idf::net::Server> server;
  std::shared_ptr<idf::IndexedDataFrame> person, knows, comment, forum;
  std::shared_ptr<idf::MultiIndexedTable> post;
  std::unique_ptr<Universe> universe;
  std::unique_ptr<idf::snb::UpdateStreamGenerator> stream;
};

/// Builds an Env; `*setup_seconds` gets the time of generate + load +
/// index + server start.
std::unique_ptr<Env> SetUp(const Options& opt, double* setup_seconds);

/// Builds the oracle after the run: the dataset generated again from the
/// seed, plus every committed batch of `log` generated again by a fresh
/// update stream, which the log replays call for call.
std::unique_ptr<Oracle> BuildOracle(const Options& opt, const std::vector<LoggedBatch>& log);

/// The update stream's next batch for `t` (knows, post or comment).
idf::RowVec NextBatch(idf::snb::UpdateStreamGenerator& gen, Table t, size_t n);

/// Everything a run measured. Metric maps hold the values printed.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;  // the first few failures, for stderr
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::string> notes;  // informational lines (sample counts, plans)
};

/// Runs `opt.workload` against `env` and verifies every kept reply.
/// Returns false (with `*error`) on an unknown workload or a set-up
/// failure of the load generators themselves.
bool RunWorkload(const Options& opt, Env& env, RunResult* result, std::string* error);

}  // namespace e2e
