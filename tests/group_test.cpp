// Unit tests for group views.
#include <gtest/gtest.h>

#include "group/group_view.h"
#include "util/ensure.h"

namespace cbc {
namespace {

TEST(GroupView, MembersSortedAndRanked) {
  GroupView view(1, {5, 2, 9});
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view.members(), (std::vector<NodeId>{2, 5, 9}));
  EXPECT_EQ(view.rank_of(2), 0u);
  EXPECT_EQ(view.rank_of(5), 1u);
  EXPECT_EQ(view.rank_of(9), 2u);
  EXPECT_EQ(view.rank_of(7), std::nullopt);
  EXPECT_EQ(view.member_at(1), 5u);
}

TEST(GroupView, ContainsChecks) {
  GroupView view(1, {1, 3});
  EXPECT_TRUE(view.contains(1));
  EXPECT_TRUE(view.contains(3));
  EXPECT_FALSE(view.contains(2));
}

TEST(GroupView, DuplicateMembersRejected) {
  EXPECT_THROW(GroupView(1, {1, 1}), InvalidArgument);
}

TEST(GroupView, RankOutOfRangeRejected) {
  GroupView view(1, {1});
  EXPECT_THROW((void)view.member_at(1), InvalidArgument);
}

TEST(GroupView, ToStringShowsIdAndMembers) {
  GroupView view(3, {2, 1});
  EXPECT_EQ(view.to_string(), "view#3{1,2}");
}

}  // namespace
}  // namespace cbc
