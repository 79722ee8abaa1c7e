// The traced run's in-process layer replays.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runner.h"

namespace e2e {

/// Handles of the prepared templates, prepared in-process on the service.
using InprocHandles = std::map<Tpl, uint64_t>;

/// Runs one statement through QueryService in-process: ExecutePrepared for
/// prepared templates, Execute for ad-hoc ones.
idf::QueryResult RunInProcess(Env& env, const InprocHandles& handles, Tpl t,
                              const std::vector<int64_t>& params);

/// Replays every template in-process while the update stream is live and
/// adds the sql.*, engine.* and the sampled service.pin_us and indexed.*
/// metrics to `metrics`. Each replay is one traced request: a root span
/// with the SQL phases as children. `plans` receives each template's
/// physical plan on both the service path and the live Session. Every
/// call counts in `*attempted`, every failed one in `*failed`.
void ReplayLayers(Env& env, const InprocHandles& handles, Tracer& tracer,
                  idf::Random64& rng, std::map<std::string, double>* metrics,
                  std::vector<std::string>* plans, uint64_t* attempted,
                  uint64_t* failed);

}  // namespace e2e
