#ifndef FNPROXY_ANALYSIS_LOCKCHECK_H_
#define FNPROXY_ANALYSIS_LOCKCHECK_H_

#include <string>
#include <vector>

#include "lint/diagnostics.h"

namespace fnproxy::analysis {

/// Whole-program static analysis of the repo's locking discipline — the
/// cross-component counterpart of Clang's per-function `-Wthread-safety`
/// pass. Clang proves each annotated function against its own
/// GUARDED_BY/REQUIRES contract but never sees protocols that span
/// components (the single-flight table handing a leader's fetch to its
/// followers, the peer tier re-entering a sibling proxy over a simulated
/// channel), and it cannot tell that an annotation is *missing* in the
/// first place. `RunLockcheck` closes both gaps: it scans every given
/// source file, reconstructs the capability graph from the
/// `CAPABILITY`/`GUARDED_BY`/`REQUIRES`/`EXCLUDES`/`ACQUIRE` annotations
/// plus every `MutexLock`/`WriterMutexLock`/`ReaderMutexLock` (and
/// `std::lock_guard`/`std::unique_lock`) construction site, propagates
/// may-acquire sets over the call graph, and emits diagnostics in the
/// same `file:line: severity [check-id] message` contract as
/// `fnproxy_lint` (docs/FORMATS.md §12).
///
/// Check-id catalog:
///   lock-order-cycle          E  the lock-order graph (edge A→B when B is
///                                acquired — directly or through a call —
///                                while A is held) contains a cycle: a
///                                potential deadlock between components
///   guarded-by-missing        E  a member written while one of its class's
///                                mutexes is held has no GUARDED_BY, so
///                                Clang's per-function pass cannot defend
///                                its other access sites
///   unguarded-async-write     E  a non-atomic member is written inside a
///                                lambda handed to ThreadPool::Submit /
///                                std::thread / a dispatcher-thread vector
///                                without holding a guarding capability
///   cv-wait-no-predicate      E  a condition_variable wait with no
///                                predicate argument outside any loop:
///                                spurious wakeups proceed unchecked
///   excludes-missing          W  a public entry point takes one of its own
///                                mutexes but is not annotated
///                                EXCLUDES(mu), so re-entry under the lock
///                                is not a build error
///   acquire-without-capability E an ACQUIRE/RELEASE-style annotation with
///                                no capability argument on a type that is
///                                neither CAPABILITY nor SCOPED_CAPABILITY
///                                — the annotation binds to `this` and is
///                                silently meaningless
///
/// Findings can be suppressed per line with a trailing
/// `// lockcheck-ok(check-id)` comment (the comment's own line and the
/// line below it are both covered); every suppression should carry a
/// justification after the closing parenthesis.
struct SourceFile {
  /// Label used in diagnostics (usually the path the file was read from).
  std::string path;
  std::string content;
};

struct LockcheckResult {
  /// Sorted by (file, line, column, check-id): whole-program passes have no
  /// meaningful emission order, so the output is canonicalized outright.
  std::vector<lint::Diagnostic> diagnostics;

  bool HasErrors() const;
  /// Diagnostics joined with newlines (empty string when clean).
  std::string FormatDiagnostics() const;
};

/// Runs every check over the whole program at once (cross-file lock-order
/// edges and call resolution need all files together). Never throws; files
/// that fail to scan contribute no model and no diagnostics.
LockcheckResult RunLockcheck(const std::vector<SourceFile>& files);

}  // namespace fnproxy::analysis

#endif  // FNPROXY_ANALYSIS_LOCKCHECK_H_
