// lp::SolverCounters: the field list reaches every member, and +=, +
// and == act on each field independently.
#include <gtest/gtest.h>

#include <cstddef>

#include "cinderella/lp/counters.hpp"

namespace cinderella::lp {
namespace {

/// Field i set to (i + 1) * scale, through the member pointers only.
SolverCounters numbered(int scale) {
  SolverCounters c;
  for (std::size_t i = 0; i < SolverCounters::kFields.size(); ++i) {
    c.*SolverCounters::kFields[i].member = static_cast<int>(i + 1) * scale;
  }
  return c;
}

TEST(SolverCounters, FieldListNamesEveryMemberOnce) {
  const SolverCounters c = numbered(1);
  // Distinct values read back through the named members prove that no
  // two list entries share a member.
  EXPECT_EQ(c.lpCalls, 1);
  EXPECT_EQ(c.nodesExpanded, 2);
  EXPECT_EQ(c.totalPivots, 3);
  EXPECT_EQ(c.devexPivots, 4);
  EXPECT_EQ(c.blandRestarts, 5);
  EXPECT_EQ(c.checkedPromotions, 6);
  EXPECT_EQ(c.presolveRowsRemoved, 7);
  EXPECT_EQ(c.presolveColsFixed, 8);
  EXPECT_EQ(c.presolveSubstitutions, 9);
  EXPECT_EQ(c.presolveRounds, 10);
}

TEST(SolverCounters, SumsAndComparesFieldByField) {
  const SolverCounters a = numbered(1);
  const SolverCounters b = numbered(10);
  SolverCounters acc = a;
  acc += b;
  const SolverCounters sum = a + b;
  for (std::size_t i = 0; i < SolverCounters::kFields.size(); ++i) {
    const auto& field = SolverCounters::kFields[i];
    SCOPED_TRACE(field.name);
    EXPECT_EQ(acc.*field.member, static_cast<int>(i + 1) * 11);
    EXPECT_EQ(sum.*field.member, static_cast<int>(i + 1) * 11);
  }
  EXPECT_EQ(acc, sum);
  EXPECT_EQ(a + SolverCounters{}, a);

  // == sees a difference in any single field.
  for (const auto& field : SolverCounters::kFields) {
    SCOPED_TRACE(field.name);
    SolverCounters changed = sum;
    changed.*field.member += 1;
    EXPECT_FALSE(changed == sum);
  }
}

}  // namespace
}  // namespace cinderella::lp
