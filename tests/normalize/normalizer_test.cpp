#include "normalize/normalizer.hpp"

#include <gtest/gtest.h>

#include "datagen/datasets.hpp"
#include "normalize/key_derivation.hpp"
#include "relation/operations.hpp"
#include "test_util.hpp"

namespace normalize {
namespace {

using testing::Attrs;
using testing::MakeRelation;

// --- invariant checkers used across the tests ---

// Every relation must be BCNF w.r.t. the projected extended FDs: each FD
// whose LHS lies inside the relation and determines anything inside it must
// have a (super)key LHS — except FDs with NULLable or empty LHS, which the
// algorithm deliberately skips (they cannot become PKs).
void ExpectBcnf(const NormalizationResult& result,
                const AttributeSet& nullable) {
  for (size_t i = 0; i < result.relations.size(); ++i) {
    const RelationSchema& rel = result.schema.relation(static_cast<int>(i));
    FdSet projected = ProjectFds(result.extended_fds, rel.attributes());
    auto keys = DeriveKeys(projected, rel.attributes());
    for (const Fd& fd : projected) {
      if (fd.lhs.Empty() || fd.lhs.Intersects(nullable)) continue;
      bool lhs_is_superkey = false;
      for (const auto& key : keys) {
        if (key.IsSubsetOf(fd.lhs)) lhs_is_superkey = true;
      }
      EXPECT_TRUE(lhs_is_superkey)
          << rel.name() << " violates BCNF via " << fd.ToString();
    }
  }
}

// Natural-joining all decomposed relations must reproduce the original
// instance (duplicates removed: relations are sets).
void ExpectLossless(const NormalizationResult& result,
                    const RelationData& original) {
  RelationData rejoined = JoinAll(result.relations);
  RelationData dedup_original =
      Project(original, original.AttributesAsSet(), /*distinct=*/true);
  EXPECT_TRUE(InstancesEqual(rejoined, dedup_original))
      << "decomposition lost or invented rows";
}

// Schema sanity: attributes partition correctly, FKs point at existing
// relations whose PK equals the FK attribute set.
void ExpectSchemaConsistent(const NormalizationResult& result) {
  ASSERT_EQ(result.relations.size(), result.schema.relations().size());
  for (size_t i = 0; i < result.relations.size(); ++i) {
    const RelationSchema& rel = result.schema.relation(static_cast<int>(i));
    EXPECT_EQ(rel.attributes(),
              result.relations[i].AttributesAsSet(
                  rel.attributes().capacity()));
    for (const ForeignKey& fk : rel.foreign_keys()) {
      ASSERT_GE(fk.target_relation, 0);
      ASSERT_LT(fk.target_relation,
                static_cast<int>(result.schema.relations().size()));
      const RelationSchema& target =
          result.schema.relation(fk.target_relation);
      EXPECT_TRUE(fk.attributes.IsSubsetOf(rel.attributes()));
      ASSERT_TRUE(target.has_primary_key());
      EXPECT_EQ(target.primary_key(), fk.attributes);
    }
  }
}

AttributeSet NullableAttrs(const RelationData& data) {
  AttributeSet nullable(data.universe_size());
  for (int c = 0; c < data.num_columns(); ++c) {
    if (data.column(c).has_null()) {
      nullable.Set(data.attribute_ids()[static_cast<size_t>(c)]);
    }
  }
  return nullable;
}

TEST(NormalizerTest, PaperAddressExample) {
  Normalizer normalizer;
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result->relations.size(), 2u);
  EXPECT_EQ(result->stats.decompositions, 1);
  EXPECT_EQ(result->stats.num_fds, 12u);

  // R1(First, Last, Postcode) with PK {First, Last} and FK Postcode.
  const RelationSchema& r1 = result->schema.relation(0);
  EXPECT_EQ(r1.attributes(), Attrs(5, {0, 1, 2}));
  ASSERT_TRUE(r1.has_primary_key());
  EXPECT_EQ(r1.primary_key(), Attrs(5, {0, 1}));
  // R2(Postcode, City, Mayor) with PK {Postcode}.
  const RelationSchema& r2 = result->schema.relation(1);
  EXPECT_EQ(r2.attributes(), Attrs(5, {2, 3, 4}));
  ASSERT_TRUE(r2.has_primary_key());
  EXPECT_EQ(r2.primary_key(), Attrs(5, {2}));

  ExpectBcnf(*result, AttributeSet(5));
  ExpectLossless(*result, AddressExample());
  ExpectSchemaConsistent(*result);
}

TEST(NormalizerTest, AlreadyBcnfInputIsUntouched) {
  // A key column plus one dependent: no violating FDs.
  RelationData data = MakeRelation({{"1", "a"}, {"2", "b"}, {"3", "a"}});
  Normalizer normalizer;
  auto result = normalizer.Normalize(data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relations.size(), 1u);
  EXPECT_EQ(result->stats.decompositions, 0);
  ASSERT_TRUE(result->schema.relation(0).has_primary_key());
}

TEST(NormalizerTest, DecliningAdvisorStopsDecomposition) {
  std::vector<int> decisions = {-1};  // refuse the first (and only) split
  ScriptedAdvisor advisor(decisions);
  Normalizer normalizer(NormalizerOptions{}, &advisor);
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->relations.size(), 1u);
  EXPECT_EQ(result->stats.decompositions, 0);
}

TEST(NormalizerTest, ScriptedAdvisorPicksAlternativeSplit) {
  // Choose the second-ranked violating FD instead of the first.
  ScriptedAdvisor advisor({1});
  Normalizer normalizer(NormalizerOptions{}, &advisor);
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.decompositions, 1);
  ExpectLossless(*result, AddressExample());
  ExpectSchemaConsistent(*result);
}

TEST(NormalizerTest, StatsArePopulated) {
  Normalizer normalizer;
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  const NormalizationStats& s = result->stats;
  EXPECT_GT(s.num_fds, 0u);
  EXPECT_GT(s.num_fd_keys, 0u);
  EXPECT_GE(s.avg_rhs_after, s.avg_rhs_before);
  EXPECT_GE(s.fd_discovery_s, 0.0);
  EXPECT_GE(s.total_s, s.fd_discovery_s);
}

// An advisor that removes one shared RHS attribute from the first chosen
// split (the paper's §7.2 user option).
class TrimmingAdvisor : public AutoAdvisor {
 public:
  AttributeSet TrimSplitRhs(const Schema&, int, const Fd&,
                            const AttributeSet& shared_rhs) override {
    AttributeSet removed(shared_rhs.capacity());
    if (!trimmed_ && !shared_rhs.Empty()) {
      removed.Set(shared_rhs.First());
      trimmed_ = true;
    }
    return removed;
  }
  bool trimmed() const { return trimmed_; }

 private:
  bool trimmed_ = false;
};

TEST(NormalizerTest, AdvisorMayTrimSharedRhsAttributes) {
  // In the address example the three violating FDs (Postcode, City, Mayor
  // anchored) share their RHS attributes, so the trimming advisor bites: the
  // first split gives up one attribute, which a later split then claims —
  // yielding MORE relations than the untrimmed run, still lossless BCNF.
  TrimmingAdvisor advisor;
  Normalizer normalizer(NormalizerOptions{}, &advisor);
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(advisor.trimmed());
  EXPECT_GT(result->relations.size(), 2u);
  ExpectLossless(*result, AddressExample());
  ExpectSchemaConsistent(*result);
  ExpectBcnf(*result, AttributeSet(5));
}

TEST(NormalizerTest, DecisionLogRecordsTheRun) {
  Normalizer normalizer;
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  // One split (Postcode -> City, Mayor) and one PK assignment (the split-off
  // R2 already has a key; the remainder needs {First, Last}).
  int splits = 0, keys = 0;
  for (const DecisionRecord& d : result->decisions) {
    if (d.kind == DecisionRecord::Kind::kSplit) {
      ++splits;
      EXPECT_EQ(d.chosen_fd.lhs, Attrs(5, {2}));
      EXPECT_EQ(d.rank, 0);
      EXPECT_EQ(d.num_candidates, 3);
      EXPECT_GT(d.score, 0.5);
    }
    if (d.kind == DecisionRecord::Kind::kPrimaryKey) {
      ++keys;
      EXPECT_EQ(d.chosen_key, Attrs(5, {0, 1}));
    }
    std::string s =
        d.ToString({"First", "Last", "Postcode", "City", "Mayor"});
    EXPECT_FALSE(s.empty());
  }
  EXPECT_EQ(splits, 1);
  EXPECT_EQ(keys, 1);
}

TEST(NormalizerTest, DeclinedDecisionsAreLogged) {
  ScriptedAdvisor advisor({-1, -1});
  Normalizer normalizer(NormalizerOptions{}, &advisor);
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  bool declined = false;
  for (const DecisionRecord& d : result->decisions) {
    if (d.kind == DecisionRecord::Kind::kSplitDeclined) declined = true;
  }
  EXPECT_TRUE(declined);
}

TEST(NormalizerTest, UnknownAlgorithmsAreErrors) {
  NormalizerOptions options;
  options.discovery_algorithm = "bogus";
  auto r1 = Normalizer(options).Normalize(AddressExample());
  EXPECT_FALSE(r1.ok());

  options.discovery_algorithm = "hyfd";
  options.closure_algorithm = "bogus";
  auto r2 = Normalizer(options).Normalize(AddressExample());
  EXPECT_FALSE(r2.ok());
}

TEST(NormalizerTest, NullableLhsColumnsAreNotSplitTargets) {
  // B -> C holds but B has NULLs: it must not become a primary key.
  RelationData data = MakeRelation({{"1", "", "p"},
                                    {"2", "", "p"},
                                    {"3", "b", "q"},
                                    {"4", "b", "q"}});
  Normalizer normalizer;
  auto result = normalizer.Normalize(data);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->relations.size(); ++i) {
    const RelationSchema& rel = result->schema.relation(static_cast<int>(i));
    if (rel.has_primary_key()) {
      EXPECT_FALSE(rel.primary_key().Test(1));
    }
  }
}

TEST(NormalizerTest, SecondNormalFormMode) {
  // Key {A,B}; C depends on A alone (partial dep -> 2NF split); D depends on
  // C (transitive dep -> left alone by 2NF).
  RelationData data = MakeRelation({{"a1", "b1", "c1", "d1"},
                                    {"a1", "b2", "c1", "d1"},
                                    {"a2", "b1", "c2", "d2"},
                                    {"a2", "b2", "c2", "d2"},
                                    {"a3", "b1", "c1", "d1"}});
  NormalizerOptions options;
  options.normal_form = NormalForm::kSecondNf;
  Normalizer normalizer(options);
  auto result = normalizer.Normalize(data);
  ASSERT_TRUE(result.ok());
  // The partial dependency A -> C,D must have been split off.
  EXPECT_EQ(result->relations.size(), 2u);
  ExpectLossless(*result, data);
  ExpectSchemaConsistent(*result);
  // Unlike BCNF, 2NF leaves the transitive C -> D inside the split-off
  // relation (C,D live together with A).
  bool cd_together = false;
  for (size_t i = 0; i < result->relations.size(); ++i) {
    const AttributeSet& attrs =
        result->schema.relation(static_cast<int>(i)).attributes();
    if (attrs.Test(2) && attrs.Test(3)) cd_together = true;
  }
  EXPECT_TRUE(cd_together);
}

TEST(NormalizerTest, ThirdNormalFormMode) {
  NormalizerOptions options;
  options.normal_form = NormalForm::kThirdNf;
  Normalizer normalizer(options);
  auto result = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(result.ok());
  ExpectLossless(*result, AddressExample());
  ExpectSchemaConsistent(*result);
}

TEST(NormalizerTest, NormalizeAllHandlesMultipleInputs) {
  // One Normalizer normalizes independent inputs in turn; the second run
  // matches a fresh instance's.
  Normalizer normalizer;
  auto first = normalizer.Normalize(AddressExample());
  ASSERT_TRUE(first.ok());
  ExpectLossless(*first, AddressExample());
  RelationData other = MakeRelation({{"1", "a"}, {"2", "b"}});
  auto second = normalizer.Normalize(other);
  ASSERT_TRUE(second.ok());
  auto fresh = Normalizer().Normalize(other);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(second->schema.ToString(), fresh->schema.ToString());
}

// --- property tests over random datasets ---

struct NormalizeCase {
  int attrs;
  int rows;
  int planted;
  double null_fraction;
  uint64_t seed;
};

class NormalizerPropertyTest : public ::testing::TestWithParam<NormalizeCase> {
};

TEST_P(NormalizerPropertyTest, BcnfLosslessConsistent) {
  const NormalizeCase& c = GetParam();
  RandomDatasetSpec spec;
  spec.num_attributes = c.attrs;
  spec.num_rows = c.rows;
  spec.num_planted_fds = c.planted;
  spec.null_fraction = c.null_fraction;
  spec.seed = c.seed;
  RelationData data = GenerateRandomDataset(spec);

  Normalizer normalizer;
  auto result = normalizer.Normalize(data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectBcnf(*result, NullableAttrs(data));
  ExpectLossless(*result, data);
  ExpectSchemaConsistent(*result);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, NormalizerPropertyTest,
    ::testing::Values(NormalizeCase{5, 50, 2, 0.0, 201},
                      NormalizeCase{6, 80, 2, 0.0, 202},
                      NormalizeCase{7, 60, 3, 0.0, 203},
                      NormalizeCase{7, 60, 3, 0.2, 204},
                      NormalizeCase{8, 100, 3, 0.0, 205},
                      NormalizeCase{8, 40, 4, 0.1, 206},
                      NormalizeCase{9, 120, 4, 0.0, 207},
                      NormalizeCase{10, 90, 4, 0.15, 208},
                      NormalizeCase{6, 2, 1, 0.0, 209},
                      NormalizeCase{5, 200, 2, 0.0, 210}));

}  // namespace
}  // namespace normalize
