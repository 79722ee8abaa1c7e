// Set-up: generate the SNB dataset from the seed, load it into indexed
// tables, register them with a QueryService and start the wire server.
// After the run, the same seed builds the correctness oracle.
#include <algorithm>

#include "runner.h"
#include "snb/tables.h"

namespace e2e {

using namespace idf;

namespace {

Result<std::shared_ptr<IndexedDataFrame>> Load(Session& s, SchemaPtr schema,
                                               const RowVec& rows,
                                               const std::string& name,
                                               const std::string& key) {
  IDF_ASSIGN_OR_RETURN(DataFrame df, s.CreateDataFrame(std::move(schema), rows, name));
  IDF_ASSIGN_OR_RETURN(IndexedDataFrame idx, IndexedDataFrame::CreateIndex(df, key, name));
  return std::make_shared<IndexedDataFrame>(std::move(idx));
}

Status Build(const snb::SnbDataset& ds, Env* env) {
  IDF_ASSIGN_OR_RETURN(env->service, QueryService::Make(ServiceConfig()));
  IDF_ASSIGN_OR_RETURN(env->session, Session::Make(EngineConfig()));
  Session& s = *env->session;
  IDF_ASSIGN_OR_RETURN(env->person, Load(s, snb::PersonSchema(), ds.persons, "person", "id"));
  IDF_ASSIGN_OR_RETURN(env->knows, Load(s, snb::KnowsSchema(), ds.knows, "knows", "person1Id"));
  IDF_ASSIGN_OR_RETURN(env->comment, Load(s, snb::CommentSchema(), ds.comments, "comment",
                                          "replyOfPostId"));
  IDF_ASSIGN_OR_RETURN(env->forum, Load(s, snb::ForumSchema(), ds.forums, "forum", "id"));
  {
    IDF_ASSIGN_OR_RETURN(DataFrame df, s.CreateDataFrame(snb::PostSchema(), ds.posts, "post"));
    IDF_ASSIGN_OR_RETURN(MultiIndexedTable post,
                         MultiIndexedTable::Create(df, {"id", "creatorId"}, "post"));
    env->post = std::make_shared<MultiIndexedTable>(std::move(post));
  }
  IDF_RETURN_NOT_OK(env->post->AddRangeIndex("creationDate"));

  QueryService& svc = *env->service;
  IDF_RETURN_NOT_OK(svc.RegisterTable("person", env->person->relation()));
  IDF_RETURN_NOT_OK(svc.RegisterTable("knows", env->knows->relation()));
  IDF_RETURN_NOT_OK(svc.RegisterTable("comment", env->comment->relation()));
  IDF_RETURN_NOT_OK(svc.RegisterTable("forum", env->forum->relation()));
  IDF_RETURN_NOT_OK(svc.RegisterTable("post", env->post));

  // The live Session sees the same relations the service serves.
  IDF_RETURN_NOT_OK(s.RegisterTable("person", env->person->ToDataFrame()));
  IDF_RETURN_NOT_OK(s.RegisterTable("knows", env->knows->ToDataFrame()));
  IDF_RETURN_NOT_OK(s.RegisterTable("comment", env->comment->ToDataFrame()));
  IDF_RETURN_NOT_OK(s.RegisterTable("forum", env->forum->ToDataFrame()));
  IDF_ASSIGN_OR_RETURN(DataFrame post_df, env->post->ToDataFrame());
  IDF_RETURN_NOT_OK(s.RegisterTable("post", post_df));

  IDF_ASSIGN_OR_RETURN(env->server, net::Server::Start(env->service, net::ServerConfig()));
  return Status::OK();
}

snb::SnbDataset Generate(const Options& opt) {
  snb::SnbConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = opt.seed;
  return snb::GenerateSnb(cfg);
}

}  // namespace

std::unique_ptr<Env> SetUp(const Options& opt, double* setup_seconds) {
  const Clock::time_point start = Clock::now();
  snb::SnbDataset ds = Generate(opt);
  auto env = std::make_unique<Env>();
  Status st = Build(ds, env.get());
  *setup_seconds = MicrosBetween(start, Clock::now()) / 1e6;
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return nullptr;
  }

  env->universe = std::make_unique<Universe>();
  Universe& u = *env->universe;
  u.first_person = ds.first_person_id;
  u.num_persons = ds.num_persons;
  u.first_post = ds.first_post_id;
  u.last_base_post = ds.first_post_id + ds.num_posts - 1;
  u.first_comment = ds.first_comment_id;
  u.latest_post = u.last_base_post;
  u.latest_comment = ds.first_comment_id + ds.num_comments - 1;
  u.min_post_date = u.max_post_date = ds.posts.front()[snb::post::kCreationDate].AsInt64();
  for (const Row& r : ds.posts) {
    const int64_t d = r[snb::post::kCreationDate].AsInt64();
    u.min_post_date = std::min(u.min_post_date, d);
    u.max_post_date = std::max(u.max_post_date, d);
  }
  env->stream = std::make_unique<snb::UpdateStreamGenerator>(ds);
  return env;
}

std::unique_ptr<Oracle> BuildOracle(const Options& opt, const std::vector<LoggedBatch>& log) {
  snb::SnbDataset ds = Generate(opt);
  snb::UpdateStreamGenerator stream(ds);
  auto oracle = std::make_unique<Oracle>(std::move(ds));
  for (const LoggedBatch& b : log) {
    const RowVec rows = NextBatch(stream, b.table, b.n);
    if (b.committed) oracle->Record(b.table, rows, b.epoch);
  }
  return oracle;
}

RowVec NextBatch(snb::UpdateStreamGenerator& gen, Table t, size_t n) {
  switch (t) {
    case Table::kKnows:
      return gen.NextKnowsBatch(n);
    case Table::kPost:
      return gen.NextPostBatch(n);
    case Table::kComment:
      return gen.NextCommentBatch(n);
    default:
      return {};
  }
}

}  // namespace e2e
