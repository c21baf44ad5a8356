#include <gtest/gtest.h>

#include <memory>

#include "relational/database.h"
#include "relational/schema.h"
#include "relational/score_function.h"
#include "relational/score_table.h"
#include "relational/score_view.h"
#include "relational/table.h"
#include "relational/value.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace svr::relational {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(-7).as_int(), -7);
  EXPECT_EQ(Value::Double(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::String("hi").as_string(), "hi");
}

TEST(ValueTest, ToNumberCoercion) {
  EXPECT_EQ(Value::Int(3).ToNumber(), 3.0);
  EXPECT_EQ(Value::Double(4.5).ToNumber(), 4.5);
  EXPECT_EQ(Value::Null().ToNumber(), 0.0);
  EXPECT_EQ(Value::String("x").ToNumber(), 0.0);
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  const Value vals[] = {Value::Null(), Value::Int(-123456789),
                        Value::Double(87.13), Value::String("golden gate"),
                        Value::String("")};
  std::string buf;
  for (const Value& v : vals) EncodeValue(&buf, v);
  Slice in(buf);
  for (const Value& v : vals) {
    Value out;
    ASSERT_TRUE(DecodeValue(&in, &out).ok());
    EXPECT_TRUE(out == v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(ValueTest, DecodeRejectsGarbage) {
  Slice empty("", 0);
  Value v;
  EXPECT_TRUE(DecodeValue(&empty, &v).IsCorruption());
  std::string bad = "\xff";
  Slice in(bad);
  EXPECT_FALSE(DecodeValue(&in, &v).ok());
}

TEST(SchemaTest, FindColumn) {
  Schema s({{"id", ValueType::kInt64}, {"name", ValueType::kString}}, 0);
  EXPECT_EQ(s.FindColumn("id"), 0);
  EXPECT_EQ(s.FindColumn("name"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<storage::InMemoryPageStore>(1024);
    pool_ = std::make_unique<storage::BufferPool>(store_.get(), 512);
    Schema schema({{"id", ValueType::kInt64},
                   {"title", ValueType::kString},
                   {"rating", ValueType::kDouble}},
                  0);
    auto t = Table::Create("movies", schema, pool_.get());
    ASSERT_TRUE(t.ok());
    table_ = std::move(t).value();
  }

  Row MakeRow(int64_t id, const std::string& title, double rating) {
    return {Value::Int(id), Value::String(title), Value::Double(rating)};
  }

  std::unique_ptr<storage::InMemoryPageStore> store_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertGet) {
  ASSERT_TRUE(table_->Insert(MakeRow(1, "American Thrift", 4.5)).ok());
  Row row;
  ASSERT_TRUE(table_->Get(1, &row).ok());
  EXPECT_EQ(row[1].as_string(), "American Thrift");
  EXPECT_EQ(row[2].as_double(), 4.5);
}

TEST_F(TableTest, DuplicatePkRejected) {
  ASSERT_TRUE(table_->Insert(MakeRow(1, "a", 1)).ok());
  EXPECT_TRUE(table_->Insert(MakeRow(1, "b", 2)).IsAlreadyExists());
}

TEST_F(TableTest, UpdateRequiresExisting) {
  EXPECT_TRUE(table_->Update(MakeRow(5, "x", 0)).IsNotFound());
  ASSERT_TRUE(table_->Insert(MakeRow(5, "x", 0)).ok());
  ASSERT_TRUE(table_->Update(MakeRow(5, "y", 3)).ok());
  Row row;
  ASSERT_TRUE(table_->Get(5, &row).ok());
  EXPECT_EQ(row[1].as_string(), "y");
}

TEST_F(TableTest, DeleteRemoves) {
  ASSERT_TRUE(table_->Insert(MakeRow(2, "gone", 0)).ok());
  ASSERT_TRUE(table_->Delete(2).ok());
  Row row;
  EXPECT_TRUE(table_->Get(2, &row).IsNotFound());
  EXPECT_TRUE(table_->Delete(2).IsNotFound());
}

TEST_F(TableTest, ScanInPkOrderIncludingNegatives) {
  ASSERT_TRUE(table_->Insert(MakeRow(10, "c", 0)).ok());
  ASSERT_TRUE(table_->Insert(MakeRow(-5, "a", 0)).ok());
  ASSERT_TRUE(table_->Insert(MakeRow(0, "b", 0)).ok());
  std::vector<int64_t> pks;
  ASSERT_TRUE(table_->Scan([&](const Row& r) {
    pks.push_back(r[0].as_int());
    return true;
  }).ok());
  ASSERT_EQ(pks.size(), 3u);
  EXPECT_EQ(pks[0], -5);
  EXPECT_EQ(pks[1], 0);
  EXPECT_EQ(pks[2], 10);
}

TEST_F(TableTest, PkMustBeInt) {
  Schema bad({{"id", ValueType::kString}}, 0);
  EXPECT_FALSE(Table::Create("bad", bad, pool_.get()).ok());
}

// --- score table ---------------------------------------------------------

class ScoreTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scores_ = ScoreTable::Create();
  }
  std::unique_ptr<ScoreTable> scores_;
};

TEST_F(ScoreTableTest, SetGet) {
  ASSERT_TRUE(scores_->Set(7, 87.13).ok());
  double s;
  ASSERT_TRUE(scores_->Get(7, &s).ok());
  EXPECT_EQ(s, 87.13);
  EXPECT_TRUE(scores_->Get(8, &s).IsNotFound());
}

TEST_F(ScoreTableTest, UpdateOverwrites) {
  ASSERT_TRUE(scores_->Set(7, 87.13).ok());
  ASSERT_TRUE(scores_->Set(7, 124.2).ok());
  double s;
  ASSERT_TRUE(scores_->Get(7, &s).ok());
  EXPECT_EQ(s, 124.2);
  EXPECT_EQ(scores_->size(), 1u);
}

TEST_F(ScoreTableTest, DeletedFlag) {
  ASSERT_TRUE(scores_->Set(7, 10).ok());
  ASSERT_TRUE(scores_->MarkDeleted(7).ok());
  double s;
  bool deleted;
  ASSERT_TRUE(scores_->GetWithDeleted(7, &s, &deleted).ok());
  EXPECT_TRUE(deleted);
  EXPECT_EQ(s, 10);
  // Re-setting a score revives the doc.
  ASSERT_TRUE(scores_->Set(7, 20).ok());
  ASSERT_TRUE(scores_->GetWithDeleted(7, &s, &deleted).ok());
  EXPECT_FALSE(deleted);
}

TEST_F(ScoreTableTest, ScanOrdered) {
  for (DocId d : {5u, 1u, 9u}) ASSERT_TRUE(scores_->Set(d, d * 1.0).ok());
  std::vector<DocId> seen;
  ASSERT_TRUE(scores_->Scan([&](DocId d, double, bool) {
    seen.push_back(d);
    return true;
  }).ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[0] == 1 && seen[1] == 5 && seen[2] == 9);
}

// --- database + score view (the §3 machinery) ------------------------------

class ScoreViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<storage::InMemoryPageStore>(4096);
    pool_ = std::make_unique<storage::BufferPool>(store_.get(), 1024);
    db_ = std::make_unique<Database>(pool_.get());

    ASSERT_TRUE(db_->CreateTable("Movies",
                                 Schema({{"mID", ValueType::kInt64},
                                         {"desc", ValueType::kString}},
                                        0))
                    .ok());
    ASSERT_TRUE(db_->CreateTable("Reviews",
                                 Schema({{"rID", ValueType::kInt64},
                                         {"mID", ValueType::kInt64},
                                         {"rating", ValueType::kDouble}},
                                        0))
                    .ok());
    ASSERT_TRUE(db_->CreateTable("Statistics",
                                 Schema({{"mID", ValueType::kInt64},
                                         {"nVisit", ValueType::kInt64},
                                         {"nDownload", ValueType::kInt64}},
                                        0))
                    .ok());

    scores_ = ScoreTable::Create();

    // The paper's §3.1 example: S1 = avg rating, S2 = visits,
    // S3 = downloads; Agg = s1*100 + s2/2 + s3.
    std::vector<ScoreComponentSpec> specs = {
        {"S1", "Reviews", "mID", "rating", AggregateKind::kAvg},
        {"S2", "Statistics", "mID", "nVisit", AggregateKind::kValue},
        {"S3", "Statistics", "mID", "nDownload", AggregateKind::kValue},
    };
    // Two kValue components over different columns of the same table need
    // separate specs — supported.
    view_ = std::make_unique<ScoreView>(
        db_.get(), "Movies", specs,
        AggFunction::WeightedSum({100, 0.5, 1}), scores_.get());
    db_->AddObserver(view_.get());
  }

  void InsertBase() {
    ASSERT_TRUE(db_->Insert("Movies", {Value::Int(0),
                                       Value::String("golden gate a")})
                    .ok());
    ASSERT_TRUE(db_->Insert("Movies", {Value::Int(1),
                                       Value::String("golden gate b")})
                    .ok());
    ASSERT_TRUE(db_->Insert("Reviews", {Value::Int(100), Value::Int(0),
                                        Value::Double(4.0)})
                    .ok());
    ASSERT_TRUE(db_->Insert("Reviews", {Value::Int(101), Value::Int(0),
                                        Value::Double(5.0)})
                    .ok());
    ASSERT_TRUE(db_->Insert("Statistics",
                            {Value::Int(0), Value::Int(2000),
                             Value::Int(98)})
                    .ok());
    ASSERT_TRUE(view_->last_error().ok());
  }

  std::unique_ptr<storage::InMemoryPageStore> store_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ScoreTable> scores_;
  std::unique_ptr<ScoreView> view_;
};

TEST_F(ScoreViewTest, IncrementalMaintenanceMatchesSpec) {
  InsertBase();
  // avg rating 4.5 * 100 + 2000/2 + 98 = 450 + 1000 + 98 = 1548.
  EXPECT_NEAR(view_->ScoreOf(0), 1548.0, 1e-9);
  // Movie 1 has no component rows at all.
  EXPECT_EQ(view_->ScoreOf(1), 0.0);
}

TEST_F(ScoreViewTest, FullRefreshEqualsIncremental) {
  InsertBase();
  const double incremental = view_->ScoreOf(0);
  ASSERT_TRUE(view_->FullRefresh().ok());
  EXPECT_NEAR(view_->ScoreOf(0), incremental, 1e-9);
  double persisted;
  ASSERT_TRUE(scores_->Get(0, &persisted).ok());
  EXPECT_NEAR(persisted, incremental, 1e-9);
}

TEST_F(ScoreViewTest, UpdatesAdjustAggregates) {
  InsertBase();
  // Change a rating: avg becomes (2+5)/2 = 3.5.
  ASSERT_TRUE(db_->Update("Reviews", {Value::Int(100), Value::Int(0),
                                      Value::Double(2.0)})
                  .ok());
  EXPECT_NEAR(view_->ScoreOf(0), 350 + 1000 + 98, 1e-9);
  // Bump visits (kValue replaces).
  ASSERT_TRUE(db_->Update("Statistics", {Value::Int(0), Value::Int(3000),
                                         Value::Int(98)})
                  .ok());
  EXPECT_NEAR(view_->ScoreOf(0), 350 + 1500 + 98, 1e-9);
}

TEST_F(ScoreViewTest, DeletesRetractContributions) {
  InsertBase();
  ASSERT_TRUE(db_->Delete("Reviews", 101).ok());
  // Only the 4.0 review remains.
  EXPECT_NEAR(view_->ScoreOf(0), 400 + 1000 + 98, 1e-9);
  ASSERT_TRUE(db_->Delete("Reviews", 100).ok());
  EXPECT_NEAR(view_->ScoreOf(0), 0 + 1000 + 98, 1e-9);
}

TEST_F(ScoreViewTest, HandlerReceivesScoreUpdates) {
  InsertBase();
  std::vector<std::pair<DocId, double>> received;
  view_->SetScoreUpdateHandler([&](DocId d, double s) {
    received.push_back({d, s});
    return Status::OK();
  });
  ASSERT_TRUE(db_->Insert("Reviews", {Value::Int(102), Value::Int(1),
                                      Value::Double(3.0)})
                  .ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_NEAR(received[0].second, 300.0, 1e-9);
}

TEST_F(ScoreViewTest, CountAggregate) {
  auto st2 = ScoreTable::Create();
  ScoreView popularity(
      db_.get(), "Movies",
      {{"S", "Reviews", "mID", "", AggregateKind::kCount}},
      AggFunction::WeightedSum({1.0}), st2.get());
  db_->AddObserver(&popularity);
  InsertBase();
  EXPECT_EQ(popularity.ScoreOf(0), 2.0);
  EXPECT_EQ(popularity.ScoreOf(1), 0.0);
}

TEST_F(ScoreViewTest, CustomAggFunction) {
  auto st2 = ScoreTable::Create();
  ScoreView v(db_.get(), "Movies",
              {{"S1", "Reviews", "mID", "rating", AggregateKind::kSum}},
              AggFunction::Custom([](const std::vector<double>& s) {
                return s[0] * s[0];
              }),
              st2.get());
  db_->AddObserver(&v);
  InsertBase();
  EXPECT_NEAR(v.ScoreOf(0), 81.0, 1e-9);  // (4+5)^2
}

TEST(DatabaseTest, UnknownTableErrors) {
  storage::InMemoryPageStore store(1024);
  storage::BufferPool pool(&store, 64);
  Database db(&pool);
  EXPECT_TRUE(db.Insert("nope", {Value::Int(1)}).IsNotFound());
  EXPECT_TRUE(db.Delete("nope", 1).IsNotFound());
  EXPECT_EQ(db.GetTable("nope"), nullptr);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  storage::InMemoryPageStore store(1024);
  storage::BufferPool pool(&store, 64);
  Database db(&pool);
  Schema s({{"id", ValueType::kInt64}}, 0);
  ASSERT_TRUE(db.CreateTable("t", s).ok());
  EXPECT_TRUE(db.CreateTable("t", s).status().IsAlreadyExists());
}

}  // namespace
}  // namespace svr::relational
