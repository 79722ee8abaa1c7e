// Shared declarations of the end-to-end benchmark: query templates, the
// brute-force correctness oracle, sample recorders and the span tracer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "snb/datagen.h"
#include "types/row.h"

namespace e2e {

using idf::Row;
using idf::RowVec;
using idf::Value;
using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Query templates

/// Every statement the benchmark sends. The first five run as prepared
/// statements (EXECUTE); the rest are ad-hoc QUERY text with literals.
enum class Tpl : int {
  kSq1,
  kSq2,
  kSq3,
  kSq4,
  kSq7,
  kJoinAgg,      // Figure 2 join, reported as COUNT/SUM
  kRangeFilter,  // Figure 2 range filter
  kGroupAgg,     // Figure 2 GROUP BY aggregation
  kProjection,   // Figure 2 projection (multi-MB reply)
  kScan,         // Figure 2 filtered scan on an unindexed column
  kEqFilter,     // Figure 2 equality filter on an indexed column
  kSq5,          // no usable index
  kSq6,          // no usable index
  kBetween,      // ~1%-selective BETWEEN on the post.creationDate range index
  kCount
};
constexpr int kNumTpl = static_cast<int>(Tpl::kCount);

const char* TplName(Tpl t);
bool IsPrepared(Tpl t);
/// True for templates whose reply is checked by multiset digest (large
/// replies); the rest keep their rows for an exact comparison.
bool IsLargeReply(Tpl t);
/// SQL with `?` placeholders (one per parameter, in order).
const std::string& TplSql(Tpl t);
/// TplSql with each `?` replaced by the literal parameter.
std::string RenderSql(Tpl t, const std::vector<int64_t>& params);
std::vector<Value> ParamValues(const std::vector<int64_t>& params);

/// Id ranges the parameter draws come from. The `latest_*` fields move
/// as the update stream appends.
struct Universe {
  int64_t first_person = 0, num_persons = 0;
  int64_t first_post = 0, last_base_post = 0;
  int64_t first_comment = 0;
  int64_t min_post_date = 0, max_post_date = 0;
  std::atomic<int64_t> latest_post{0};     // highest post id committed
  std::atomic<int64_t> latest_comment{0};  // highest comment id committed
};

/// Draws the parameters of one execution of `t` (uniform over the ids).
std::vector<int64_t> DrawParams(Tpl t, idf::Random64& rng, const Universe& u);

// ---------------------------------------------------------------------------
// Correctness oracle

enum class Table : int { kPerson, kKnows, kPost, kComment, kForum, kCount };


/// Column of a template's reply that its ORDER BY sorts on (-1: none).
int OrderKeyColumn(Tpl t);

/// A reply kept for checking after the run. Only digests are kept, so the
/// replies add little to the process while it is measured.
struct Check {
  Tpl tpl;
  std::vector<int64_t> params;
  uint64_t epoch = 0;
  size_t nrows = 0;
  uint64_t digest = 0;                 // multiset digest (large replies)
  std::vector<uint64_t> row_digests;   // per row, in reply order (small replies)
  std::vector<Value> sort_keys;        // per row (small ordered replies)
};

/// Order-independent digest of a row multiset. Numbers hash by value, so
/// an int32 column and the int64 the oracle computes for it agree.
uint64_t RowDigest(const Row& row);
uint64_t MultisetDigest(const RowVec& rows);

/// One update-stream batch as it was sent: enough to generate its rows
/// again from the seed after the run.
struct LoggedBatch {
  Table table;
  size_t n = 0;          // the generator call's argument
  uint64_t epoch = 0;    // the epoch its Append produced
  bool committed = false;
};

/// Every row the benchmark generated or appended, tagged with the epoch
/// its Append produced (0 for the initial load), and brute-force answers
/// to every template at any epoch. Built after the measured run, from the
/// seed and the log of appended batches.
class Oracle {
 public:
  /// Takes the rows of the generated dataset.
  explicit Oracle(idf::snb::SnbDataset&& ds);

  /// Records a committed batch under the epoch its Append produced.
  void Record(Table t, const RowVec& rows, uint64_t epoch);

  /// The expected reply of `t(params)` on a snapshot pinned at `epoch`.
  RowVec Answer(Tpl t, const std::vector<int64_t>& params, uint64_t epoch) const;

  /// Compares a recorded reply with the brute-force answer. On mismatch,
  /// returns false and explains in `why`.
  bool Verify(const Check& c, std::string* why) const;

 private:
  struct Stored {
    RowVec rows;
    std::vector<uint64_t> epochs;
    std::unordered_multimap<int64_t, size_t> by_key[2];
  };
  void Add(Table t, Row row, uint64_t epoch);
  // Visits rows of `t` with key column `kc` (0 or 1 of the table's two
  // lookup keys) equal to `key`, visible at `epoch`.
  template <typename Fn>
  void ForKey(Table t, int kc, int64_t key, uint64_t epoch, Fn&& fn) const;
  template <typename Fn>
  void ForAll(Table t, uint64_t epoch, Fn&& fn) const;
  const Row* Person(int64_t id) const;

  Stored tables_[static_cast<int>(Table::kCount)];
};

// ---------------------------------------------------------------------------
// Samples and statistics

/// Nearest-rank percentile of unsorted samples (q in [0,1]); 0 if empty.
double Percentile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Tracing

/// One timed interval. Spans of one request share `request`; `parent` is
/// the index of the parent span within the same thread's buffer (-1 for a
/// root). The wire round trip is the root of a traced request; the paired
/// in-process replays are its children.
struct Span {
  std::string name;
  uint64_t request = 0;
  int parent = -1;
  double start_us = 0;  // since the tracer's origin
  double end_us = 0;
};

/// Per-thread span buffers, kept in memory and written out at exit.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  class Buffer {
   public:
    int Add(const std::string& name, uint64_t request, int parent,
            Clock::time_point start, Clock::time_point end);
    /// Sets the end of a span added before its children.
    void End(int span, Clock::time_point end);

   private:
    friend class Tracer;
    Clock::time_point origin_;
    std::vector<Span> spans_;
  };
  /// A buffer owned by the tracer for one thread's exclusive use.
  Buffer* NewBuffer();
  uint64_t NextRequestId() { return next_request_.fetch_add(1) + 1; }

  /// Self time (duration minus the children's durations) per span name,
  /// as medians in microseconds.
  std::map<std::string, double> MedianSelfTimes() const;
  /// Writes every span as JSON to `path`.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> next_request_{0};
};

}  // namespace e2e
