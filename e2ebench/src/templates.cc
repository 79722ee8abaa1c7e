// The statements the benchmark sends: the SNB short reads of Figure 3
// (SQ1-SQ4 and SQ7 prepared; SQ5 and SQ6 ad hoc, since no index serves
// them) and the Figure 2 operators as ad-hoc SQL with varying literals.

#include "bench.h"

namespace e2e {
namespace {

struct TplDef {
  const char* name;
  std::string sql;
};

const TplDef& Def(Tpl t) {
  static const TplDef kDefs[kNumTpl] = {
      {"sq1",
       "SELECT firstName, lastName, gender, birthday, creationDate, "
       "locationIP, browserUsed, cityId FROM person WHERE id = ?"},
      {"sq2",
       "SELECT id, content, creationDate FROM post WHERE creatorId = ? "
       "ORDER BY creationDate DESC LIMIT 10"},
      {"sq3",
       "SELECT p.id, p.firstName, p.lastName, k.creationDate AS "
       "friendshipDate FROM knows k JOIN person p ON k.person2Id = p.id "
       "WHERE k.person1Id = ? ORDER BY k.creationDate DESC"},
      {"sq4", "SELECT creationDate, content FROM post WHERE id = ?"},
      {"sq7",
       "SELECT c.content AS replyContent, p.firstName AS authorFirstName, "
       "p.lastName AS authorLastName, c.creationDate AS replyDate FROM "
       "comment c JOIN person p ON c.creatorId = p.id WHERE c.replyOfPostId "
       "= ? ORDER BY c.creationDate DESC"},
      {"join_agg",
       "SELECT COUNT(*) AS n, SUM(p.cityId) AS cities FROM knows k JOIN "
       "person p ON k.person2Id = p.id WHERE p.cityId < ?"},
      {"range_filter",
       "SELECT id, length FROM comment WHERE length BETWEEN ? AND ?"},
      {"group_agg",
       "SELECT creatorId, COUNT(*) AS n, SUM(length) AS total FROM comment "
       "WHERE length > ? GROUP BY creatorId"},
      {"projection",
       "SELECT id, creatorId, length * ? AS scaled FROM post WHERE id <= ?"},
      {"scan", "SELECT id, creationDate FROM comment WHERE creatorId = ?"},
      {"eq_filter", "SELECT person2Id, creationDate FROM knows WHERE person1Id = ?"},
      {"sq5",
       "SELECT p.id, p.firstName, p.lastName FROM comment c JOIN person p ON "
       "c.creatorId = p.id WHERE c.id = ?"},
      {"sq6",
       "SELECT f.title AS forumTitle, m.firstName AS moderatorFirstName, "
       "m.lastName AS moderatorLastName FROM comment c JOIN post q ON "
       "c.replyOfPostId = q.id JOIN forum f ON q.forumId = f.id JOIN person m "
       "ON f.moderatorId = m.id WHERE c.id = ?"},
      {"between",
       "SELECT id, creatorId FROM post WHERE creationDate BETWEEN ? AND ?"},
  };
  return kDefs[static_cast<int>(t)];
}

int64_t UniformIn(idf::Random64& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(hi - lo + 1)));
}

}  // namespace

const char* TplName(Tpl t) { return Def(t).name; }

bool IsPrepared(Tpl t) { return static_cast<int>(t) <= static_cast<int>(Tpl::kSq7); }

bool IsLargeReply(Tpl t) {
  switch (t) {
    case Tpl::kRangeFilter:
    case Tpl::kGroupAgg:
    case Tpl::kProjection:
    case Tpl::kBetween:
      return true;
    default:
      return false;
  }
}

const std::string& TplSql(Tpl t) { return Def(t).sql; }

std::string RenderSql(Tpl t, const std::vector<int64_t>& params) {
  std::string out;
  size_t next = 0;
  for (char c : TplSql(t)) {
    if (c == '?') {
      out += std::to_string(params.at(next++));
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<Value> ParamValues(const std::vector<int64_t>& params) {
  std::vector<Value> out;
  out.reserve(params.size());
  for (int64_t p : params) out.emplace_back(p);
  return out;
}

std::vector<int64_t> DrawParams(Tpl t, idf::Random64& rng, const Universe& u) {
  const int64_t person =
      UniformIn(rng, u.first_person, u.first_person + u.num_persons - 1);
  switch (t) {
    case Tpl::kSq1:
    case Tpl::kSq2:
    case Tpl::kSq3:
    case Tpl::kScan:
    case Tpl::kEqFilter:
      return {person};
    case Tpl::kSq4:
    case Tpl::kSq7:
      return {UniformIn(rng, u.first_post, u.latest_post.load())};
    case Tpl::kSq5:
    case Tpl::kSq6:
      return {UniformIn(rng, u.first_comment, u.latest_comment.load())};
    case Tpl::kJoinAgg:
      return {UniformIn(rng, 20, 80)};  // cityId < c: 4-16% of persons
    case Tpl::kRangeFilter: {
      const int64_t lo = UniformIn(rng, 20, 60);
      return {lo, lo + 10};
    }
    case Tpl::kGroupAgg:
      return {UniformIn(rng, 20, 60)};
    case Tpl::kProjection:
      // Only the initially loaded posts, so the reply (~3 MB) stays the
      // same size however far the update stream has grown the table.
      return {UniformIn(rng, 2, 9), u.last_base_post};
    case Tpl::kBetween: {
      const int64_t width = (u.max_post_date - u.min_post_date) / 100;
      const int64_t lo = UniformIn(rng, u.min_post_date, u.max_post_date - width);
      return {lo, lo + width};
    }
    case Tpl::kCount:
      break;
  }
  return {};
}

}  // namespace e2e
