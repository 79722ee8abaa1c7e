// Brute-force correctness oracle: answers every template from the rows
// the benchmark itself generated and appended, at the epoch a reply was
// read at, without going through the engine.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "snb/tables.h"

namespace e2e {

namespace person = idf::snb::person;
namespace knows = idf::snb::knows;
namespace post = idf::snb::post;
namespace comment = idf::snb::comment;
namespace forum = idf::snb::forum;

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

uint64_t ValueHash(const Value& v) {
  if (v.is_null()) return 0x6e756c6cULL;
  if (v.is_string()) {
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : v.string_value()) h = (h ^ c) * 1099511628211ULL;
    return Mix(h, 3);
  }
  if (v.is_bool()) return Mix(v.bool_value() ? 1 : 2, 5);
  if (v.is_double()) {
    const double d = v.double_value();
    if (std::floor(d) == d && std::fabs(d) < 9.0e15) {
      return Mix(static_cast<uint64_t>(static_cast<int64_t>(d)), 7);
    }
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return Mix(bits, 11);
  }
  return Mix(static_cast<uint64_t>(v.AsInt64()), 7);
}

// The two lookup keys kept per table (-1: none).
int KeyColumn(Table t, int kc) {
  switch (t) {
    case Table::kPerson:
      return kc == 0 ? person::kId : -1;
    case Table::kKnows:
      return kc == 0 ? knows::kPerson1 : -1;
    case Table::kPost:
      return kc == 0 ? post::kId : post::kCreatorId;
    case Table::kComment:
      return kc == 0 ? comment::kReplyOfPostId : comment::kId;
    case Table::kForum:
      return kc == 0 ? forum::kId : -1;
    case Table::kCount:
      break;
  }
  return -1;
}

// Sorts newest first by `col` (the templates' ORDER BY ... DESC).
void SortDesc(RowVec* rows, int col) {
  std::stable_sort(rows->begin(), rows->end(), [col](const Row& a, const Row& b) {
    return b[col] < a[col];
  });
}

std::vector<uint64_t> SortedDigests(const RowVec& rows) {
  std::vector<uint64_t> d;
  d.reserve(rows.size());
  for (const Row& r : rows) d.push_back(RowDigest(r));
  std::sort(d.begin(), d.end());
  return d;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> d) {
  std::sort(d.begin(), d.end());
  return d;
}

}  // namespace

int OrderKeyColumn(Tpl t) {
  switch (t) {
    case Tpl::kSq2:
      return 2;
    case Tpl::kSq3:
    case Tpl::kSq7:
      return 3;
    default:
      return -1;
  }
}

uint64_t RowDigest(const Row& row) {
  uint64_t h = 0x726f77ULL;
  for (const Value& v : row) h = Mix(h, ValueHash(v));
  return h;
}

uint64_t MultisetDigest(const RowVec& rows) {
  uint64_t sum = 0;
  for (const Row& r : rows) sum += RowDigest(r);
  return sum;
}

Oracle::Oracle(idf::snb::SnbDataset&& ds) {
  for (Row& r : ds.persons) Add(Table::kPerson, std::move(r), 0);
  for (Row& r : ds.knows) Add(Table::kKnows, std::move(r), 0);
  for (Row& r : ds.posts) Add(Table::kPost, std::move(r), 0);
  for (Row& r : ds.comments) Add(Table::kComment, std::move(r), 0);
  for (Row& r : ds.forums) Add(Table::kForum, std::move(r), 0);
}

void Oracle::Add(Table t, Row row, uint64_t epoch) {
  Stored& s = tables_[static_cast<int>(t)];
  const size_t idx = s.rows.size();
  for (int kc = 0; kc < 2; ++kc) {
    const int col = KeyColumn(t, kc);
    if (col >= 0) s.by_key[kc].emplace(row[col].AsInt64(), idx);
  }
  s.rows.push_back(std::move(row));
  s.epochs.push_back(epoch);
}

void Oracle::Record(Table t, const RowVec& rows, uint64_t epoch) {
  for (const Row& r : rows) Add(t, r, epoch);
}

template <typename Fn>
void Oracle::ForKey(Table t, int kc, int64_t key, uint64_t epoch, Fn&& fn) const {
  const Stored& s = tables_[static_cast<int>(t)];
  auto [lo, hi] = s.by_key[kc].equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (s.epochs[it->second] <= epoch) fn(s.rows[it->second]);
  }
}

template <typename Fn>
void Oracle::ForAll(Table t, uint64_t epoch, Fn&& fn) const {
  const Stored& s = tables_[static_cast<int>(t)];
  for (size_t i = 0; i < s.rows.size(); ++i) {
    if (s.epochs[i] <= epoch) fn(s.rows[i]);
  }
}

const Row* Oracle::Person(int64_t id) const {
  const Row* found = nullptr;
  ForKey(Table::kPerson, 0, id, 0, [&](const Row& r) { found = &r; });
  return found;
}

RowVec Oracle::Answer(Tpl t, const std::vector<int64_t>& p, uint64_t epoch) const {
  RowVec out;
  switch (t) {
    case Tpl::kSq1:
      if (const Row* r = Person(p[0])) {
        out.push_back({(*r)[person::kFirstName], (*r)[person::kLastName],
                       (*r)[person::kGender], (*r)[person::kBirthday],
                       (*r)[person::kCreationDate], (*r)[person::kLocationIp],
                       (*r)[person::kBrowserUsed], (*r)[person::kCityId]});
      }
      break;
    case Tpl::kSq2:
      ForKey(Table::kPost, 1, p[0], epoch, [&](const Row& r) {
        out.push_back({r[post::kId], r[post::kContent], r[post::kCreationDate]});
      });
      SortDesc(&out, 2);
      break;
    case Tpl::kSq3:
      ForKey(Table::kKnows, 0, p[0], epoch, [&](const Row& k) {
        if (const Row* f = Person(k[knows::kPerson2].AsInt64())) {
          out.push_back({(*f)[person::kId], (*f)[person::kFirstName],
                         (*f)[person::kLastName], k[knows::kCreationDate]});
        }
      });
      SortDesc(&out, 3);
      break;
    case Tpl::kSq4:
      ForKey(Table::kPost, 0, p[0], epoch, [&](const Row& r) {
        out.push_back({r[post::kCreationDate], r[post::kContent]});
      });
      break;
    case Tpl::kSq7:
      ForKey(Table::kComment, 0, p[0], epoch, [&](const Row& c) {
        if (const Row* a = Person(c[comment::kCreatorId].AsInt64())) {
          out.push_back({c[comment::kContent], (*a)[person::kFirstName],
                         (*a)[person::kLastName], c[comment::kCreationDate]});
        }
      });
      SortDesc(&out, 3);
      break;
    case Tpl::kJoinAgg: {
      int64_t n = 0, cities = 0;
      ForAll(Table::kKnows, epoch, [&](const Row& k) {
        const Row* f = Person(k[knows::kPerson2].AsInt64());
        if (f != nullptr && (*f)[person::kCityId].AsInt64() < p[0]) {
          ++n;
          cities += (*f)[person::kCityId].AsInt64();
        }
      });
      // SUM over no rows is NULL.
      out.push_back({Value(n), n == 0 ? Value::Null() : Value(cities)});
      break;
    }
    case Tpl::kRangeFilter:
      ForAll(Table::kComment, epoch, [&](const Row& c) {
        const int64_t len = c[comment::kLength].AsInt64();
        if (len >= p[0] && len <= p[1]) out.push_back({c[comment::kId], c[comment::kLength]});
      });
      break;
    case Tpl::kGroupAgg: {
      std::map<int64_t, std::pair<int64_t, int64_t>> groups;
      ForAll(Table::kComment, epoch, [&](const Row& c) {
        const int64_t len = c[comment::kLength].AsInt64();
        if (len > p[0]) {
          auto& g = groups[c[comment::kCreatorId].AsInt64()];
          g.first += 1;
          g.second += len;
        }
      });
      for (const auto& [creator, g] : groups) {
        out.push_back({Value(creator), Value(g.first), Value(g.second)});
      }
      break;
    }
    case Tpl::kProjection:
      ForAll(Table::kPost, epoch, [&](const Row& r) {
        if (r[post::kId].AsInt64() <= p[1]) {
          out.push_back({r[post::kId], r[post::kCreatorId],
                         Value(r[post::kLength].AsInt64() * p[0])});
        }
      });
      break;
    case Tpl::kScan:
      ForAll(Table::kComment, epoch, [&](const Row& c) {
        if (c[comment::kCreatorId].AsInt64() == p[0]) {
          out.push_back({c[comment::kId], c[comment::kCreationDate]});
        }
      });
      break;
    case Tpl::kEqFilter:
      ForKey(Table::kKnows, 0, p[0], epoch, [&](const Row& k) {
        out.push_back({k[knows::kPerson2], k[knows::kCreationDate]});
      });
      break;
    case Tpl::kSq5:
      ForKey(Table::kComment, 1, p[0], epoch, [&](const Row& c) {
        if (const Row* a = Person(c[comment::kCreatorId].AsInt64())) {
          out.push_back({(*a)[person::kId], (*a)[person::kFirstName],
                         (*a)[person::kLastName]});
        }
      });
      break;
    case Tpl::kSq6:
      ForKey(Table::kComment, 1, p[0], epoch, [&](const Row& c) {
        ForKey(Table::kPost, 0, c[comment::kReplyOfPostId].AsInt64(), epoch,
               [&](const Row& q) {
                 ForKey(Table::kForum, 0, q[post::kForumId].AsInt64(), epoch,
                        [&](const Row& f) {
                          if (const Row* m = Person(f[forum::kModeratorId].AsInt64())) {
                            out.push_back({f[forum::kTitle], (*m)[person::kFirstName],
                                           (*m)[person::kLastName]});
                          }
                        });
               });
      });
      break;
    case Tpl::kBetween:
      ForAll(Table::kPost, epoch, [&](const Row& r) {
        const int64_t d = r[post::kCreationDate].AsInt64();
        if (d >= p[0] && d <= p[1]) out.push_back({r[post::kId], r[post::kCreatorId]});
      });
      break;
    case Tpl::kCount:
      break;
  }
  return out;
}

bool Oracle::Verify(const Check& c, std::string* why) const {
  RowVec expected = Answer(c.tpl, c.params, c.epoch);
  const size_t limit = c.tpl == Tpl::kSq2 ? 10 : expected.size();
  const size_t want = std::min(limit, expected.size());
  if (c.nrows != want) {
    *why = "expected " + std::to_string(want) + " rows, got " + std::to_string(c.nrows);
    return false;
  }
  if (IsLargeReply(c.tpl)) {
    if (c.digest != MultisetDigest(expected)) {
      *why = "row multiset differs";
      return false;
    }
    return true;
  }
  const int key = OrderKeyColumn(c.tpl);
  if (key < 0) {
    if (Sorted(c.row_digests) != SortedDigests(expected)) {
      *why = "rows differ";
      return false;
    }
    return true;
  }
  // Ordered reply: ties on the sort key may come back in any order, and a
  // LIMIT may cut a tie group anywhere. The key sequence must match; every
  // group above the last key must match as a multiset; the last group must
  // be drawn from the expected rows with that key.
  for (size_t i = 0; i < want; ++i) {
    if (c.sort_keys[i] != expected[i][key]) {
      *why = "sort key differs at row " + std::to_string(i);
      return false;
    }
  }
  if (want == 0) return true;
  const Value& last = c.sort_keys[want - 1];
  std::vector<uint64_t> got_above, got_last;
  for (size_t i = 0; i < want; ++i) {
    (c.sort_keys[i] == last ? got_last : got_above).push_back(c.row_digests[i]);
  }
  RowVec exp_above, exp_last;
  for (const Row& r : expected) {
    if (r[key] == last) {
      exp_last.push_back(r);
    } else if (last < r[key]) {
      exp_above.push_back(r);
    }
  }
  if (Sorted(got_above) != SortedDigests(exp_above)) {
    *why = "rows differ";
    return false;
  }
  std::vector<uint64_t> pool = SortedDigests(exp_last);
  for (uint64_t d : Sorted(got_last)) {
    auto it = std::lower_bound(pool.begin(), pool.end(), d);
    if (it == pool.end() || *it != d) {
      *why = "row not in the expected tie group";
      return false;
    }
    pool.erase(it);
  }
  return true;
}

}  // namespace e2e
