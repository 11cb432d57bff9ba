#include "auth/template_store.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mandipass::auth {
namespace {

StoredTemplate make_template(float fill, std::uint64_t seed) {
  StoredTemplate t;
  t.data.assign(16, fill);
  t.matrix_seed = seed;
  return t;
}

TEST(TemplateStore, EnrollAndLookup) {
  TemplateStore store;
  store.enroll("alice", make_template(1.0f, 7));
  const auto t = store.lookup("alice");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->matrix_seed, 7u);
  EXPECT_EQ(t->data.size(), 16u);
}

TEST(TemplateStore, LookupUnknownIsEmpty) {
  TemplateStore store;
  EXPECT_FALSE(store.lookup("nobody").has_value());
}

TEST(TemplateStore, ReEnrollOverwrites) {
  TemplateStore store;
  store.enroll("alice", make_template(1.0f, 7));
  store.enroll("alice", make_template(2.0f, 8));
  const auto t = store.lookup("alice");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->matrix_seed, 8u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TemplateStore, Revoke) {
  TemplateStore store;
  store.enroll("alice", make_template(1.0f, 7));
  EXPECT_TRUE(store.revoke("alice"));
  EXPECT_FALSE(store.lookup("alice").has_value());
  EXPECT_FALSE(store.revoke("alice"));
}

TEST(TemplateStore, MultipleUsers) {
  TemplateStore store;
  store.enroll("a", make_template(1.0f, 1));
  store.enroll("b", make_template(2.0f, 2));
  store.enroll("c", make_template(3.0f, 3));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.lookup("b")->matrix_seed, 2u);
}

TEST(TemplateStore, InvalidEnrollThrows) {
  TemplateStore store;
  EXPECT_THROW(store.enroll("", make_template(1.0f, 1)), PreconditionError);
  StoredTemplate empty;
  EXPECT_THROW(store.enroll("x", empty), PreconditionError);
}

}  // namespace
}  // namespace mandipass::auth
