// Golden-diagnostic tests for the whole-program concurrency checker: one
// fixture per check-id under tests/lockcheck_fixtures/, plus the guarantee
// that the repository's own source tree checks clean (CI runs
// fnproxy_lockcheck --werror over the same files).
#include "analysis/lockcheck.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fnproxy::analysis {
namespace {

using lint::Severity;

#ifndef FNPROXY_LOCKCHECK_FIXTURE_DIR
#error "FNPROXY_LOCKCHECK_FIXTURE_DIR must be defined by the build"
#endif
#ifndef FNPROXY_SOURCE_DIR
#error "FNPROXY_SOURCE_DIR must be defined by the build"
#endif

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

LockcheckResult CheckFixture(const std::string& name) {
  const std::string path =
      std::string(FNPROXY_LOCKCHECK_FIXTURE_DIR) + "/" + name;
  return RunLockcheck({{name, ReadFileOrDie(path)}});
}

/// One expected diagnostic: exact line, severity and check-id, plus a
/// substring the message must contain.
struct Expected {
  size_t line;
  Severity severity;
  std::string check_id;
  std::string message_part;
};

void ExpectDiagnostics(const std::string& fixture,
                       const std::vector<Expected>& expected) {
  SCOPED_TRACE(fixture);
  const LockcheckResult result = CheckFixture(fixture);
  ASSERT_EQ(result.diagnostics.size(), expected.size())
      << result.FormatDiagnostics();
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(std::string("diagnostic #") + std::to_string(i));
    const lint::Diagnostic& got = result.diagnostics[i];
    EXPECT_EQ(got.line, expected[i].line);
    EXPECT_EQ(got.severity, expected[i].severity);
    EXPECT_EQ(got.check_id, expected[i].check_id);
    EXPECT_NE(got.message.find(expected[i].message_part), std::string::npos)
        << "message '" << got.message << "' does not contain '"
        << expected[i].message_part << "'";
  }
}

TEST(LockcheckFixtureTest, LockOrderCycle) {
  // Anchored at the first edge of the cycle: the cross-component call in
  // A::Alpha made while A::a_mu_ is held.
  ExpectDiagnostics("lock_order_cycle.cc",
                    {{35, Severity::kError, "lock-order-cycle",
                      "lock-order cycle"}});
}

TEST(LockcheckFixtureTest, GuardedByMissing) {
  // Anchored at the member declaration, where the annotation belongs.
  ExpectDiagnostics("guarded_by_missing.cc",
                    {{15, Severity::kError, "guarded-by-missing",
                      "has no GUARDED_BY annotation"}});
}

TEST(LockcheckFixtureTest, UnguardedAsyncWrite) {
  ExpectDiagnostics("unguarded_async_write.cc",
                    {{18, Severity::kError, "unguarded-async-write",
                      "written from a detached task"}});
}

TEST(LockcheckFixtureTest, CvWaitNoPredicate) {
  ExpectDiagnostics("cv_wait_no_predicate.cc",
                    {{23, Severity::kError, "cv-wait-no-predicate",
                      "no predicate"}});
}

TEST(LockcheckFixtureTest, ExcludesMissing) {
  ExpectDiagnostics("excludes_missing.cc",
                    {{11, Severity::kWarning, "excludes-missing",
                      "not annotated EXCLUDES(mu_)"}});
}

TEST(LockcheckFixtureTest, AcquireWithoutCapability) {
  ExpectDiagnostics("acquire_without_capability.cc",
                    {{11, Severity::kError, "acquire-without-capability",
                      "not declared CAPABILITY"}});
}

TEST(LockcheckFixtureTest, CleanFixtureHasNoDiagnostics) {
  const LockcheckResult result = CheckFixture("clean.cc");
  EXPECT_TRUE(result.diagnostics.empty()) << result.FormatDiagnostics();
  EXPECT_FALSE(result.HasErrors());
}

TEST(LockcheckSuppressionTest, LockcheckOkCommentSuppressesFinding) {
  // The cv-wait fixture's defect, with a justified suppression comment on
  // the flagged line.
  std::string content = ReadFileOrDie(
      std::string(FNPROXY_LOCKCHECK_FIXTURE_DIR) + "/cv_wait_no_predicate.cc");
  const std::string flagged = "cv_.wait(lock);";
  const size_t at = content.find(flagged);
  ASSERT_NE(at, std::string::npos);
  content.insert(at + flagged.size(),
                 "  // lockcheck-ok(cv-wait-no-predicate) woken exactly once");
  const LockcheckResult result = RunLockcheck({{"inline.cc", content}});
  EXPECT_TRUE(result.diagnostics.empty()) << result.FormatDiagnostics();
}

TEST(LockcheckSuppressionTest, UnrelatedSuppressionDoesNotHide) {
  std::string content = ReadFileOrDie(
      std::string(FNPROXY_LOCKCHECK_FIXTURE_DIR) + "/cv_wait_no_predicate.cc");
  const std::string flagged = "cv_.wait(lock);";
  const size_t at = content.find(flagged);
  ASSERT_NE(at, std::string::npos);
  content.insert(at + flagged.size(), "  // lockcheck-ok(excludes-missing)");
  const LockcheckResult result = RunLockcheck({{"inline.cc", content}});
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].check_id, "cv-wait-no-predicate");
}

TEST(LockcheckRunTest, EmptyInputIsClean) {
  const LockcheckResult result = RunLockcheck({});
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_FALSE(result.HasErrors());
}

/// The repository's own source tree must check clean — the same invariant
/// CI enforces with `fnproxy_lockcheck --werror src/`. A regression here
/// means a new component broke the locking conventions of DESIGN.md §11.
TEST(LockcheckRealSourceTest, RepositorySourceTreeChecksClean) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           FNPROXY_SOURCE_DIR)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    files.push_back({path, ReadFileOrDie(path)});
  }
  EXPECT_GE(files.size(), 100u) << "expected the full src/ tree";
  const LockcheckResult result = RunLockcheck(files);
  EXPECT_TRUE(result.diagnostics.empty()) << result.FormatDiagnostics();
}

}  // namespace
}  // namespace fnproxy::analysis
