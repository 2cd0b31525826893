// Lockdep-style latch instrumentation (tentpole of the lock-order analyzer).
//
// Every latch in the system registers with the LockRegistry under a *class*
// keyed by name — "catalog", "servingschema", "table:<name>", "bufferpool" —
// with a rank from the canonical hierarchy (DESIGN.md §17). Classes are
// per-name, not per-instance (Linux-lockdep style): a table dropped and
// recreated under the same name maps back to the same class, and edges
// recorded across different Database instances merge into one global
// acquisition-order graph.
//
// In a PROGSCHEMA_LOCKDEP build, every blocking acquire records an edge from
// each lock the calling thread already holds to the lock being acquired, and
// flags violations *at acquire time* — before the thread can actually
// deadlock:
//
//   - order inversion: acquiring a lock whose (rank, name) does not sort
//     strictly after every held lock's (rank, name);
//   - shared→exclusive upgrade of an already-held latch (classic deadlock
//     when two threads race the upgrade);
//   - recursive acquisition of an already-held latch (pse::SharedMutex is
//     writer-preferring, so even shared→shared self-nesting can deadlock
//     behind a waiting writer — see rw_latch.h);
//   - disk I/O performed while a no-I/O class is held (OnIo, fired by the
//     leaf DiskManager backends). Classes that legitimately do page I/O
//     under their latch — the buffer pool's miss path, the catalog latch
//     across quiesce-window checkpoints — register with allows_io=true.
//
// Trylock acquisitions push held state but record no edges and raise no
// order violations: a non-blocking acquire cannot participate in a deadlock.
//
// The registry API itself is always compiled (tests seed violations through
// it directly in any build); only the *hooks* in the latch classes are
// compiled under PSE_LOCKDEP, so a normal build pays nothing — checked by
// LockOrderLive.HooksRecordOnlyInLockdepBuilds (tests/analysis/lockorder_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pse {

/// Canonical latch ranks (DESIGN.md §17). Acquisition must ascend in
/// (rank, class-name) order; ties within kLockRankTable are broken by the
/// sorted table name, which is why ExecutePlan sorts its latch set.
enum LockRank : int {
  kLockRankFleet = 4,        // FleetScheduler pick/busy state (pre-catalog)
  kLockRankShard = 6,        // TenantShard trajectory state ("shard:<id>")
  kLockRankFleetIo = 8,      // IoTokenBucket global migration-I/O budget
  kLockRankCatalog = 10,     // Database::schema_latch()
  kLockRankServing = 20,     // ServingSchema snapshot mutex (no I/O allowed)
  kLockRankDmlRouter = 25,   // DmlRouter write mutex (statement/batch scope)
  kLockRankProvenance = 26,  // ProvenanceStore map mutex (no I/O allowed)
  kLockRankPlanCache = 28,   // SharedPlanCache map mutex (no I/O allowed)
  kLockRankTable = 30,       // per-TableInfo latches, sorted-name order
  kLockRankBufferPool = 40,  // BufferPool mutex (leaf; I/O on miss path)
};

enum class LockMode : uint8_t { kShared, kExclusive };

const char* LockModeName(LockMode mode);

struct LockClassDesc {
  std::string name;
  int rank = 0;
  // True when the class may legitimately perform page I/O while held.
  bool allows_io = false;
};

/// One observed "held A, then acquired B" ordering, merged over all threads
/// and runs since the last ClearEvents(). Sites are the PSE_LOCKDEP_SCOPE
/// annotations active at first observation.
struct LockEdge {
  size_t from = 0;  // index into LockOrderGraph::classes
  size_t to = 0;
  std::string from_site;
  std::string to_site;
  uint64_t count = 0;
};

enum class LockViolationKind : uint8_t {
  kOrderInversion,
  kUpgrade,
  kRecursive,
  kHeldAcrossIo,
};

const char* LockViolationKindName(LockViolationKind kind);

struct LockViolation {
  LockViolationKind kind = LockViolationKind::kOrderInversion;
  std::string held_lock;
  std::string held_site;
  LockMode held_mode = LockMode::kShared;
  std::string acquired_lock;  // empty for kHeldAcrossIo ("disk I/O")
  std::string acquired_site;
  LockMode acquired_mode = LockMode::kExclusive;

  std::string ToString() const;
};

/// Immutable snapshot of the registry, consumed by AnalyzeLockOrder and the
/// DOT renderer (src/analysis/lockorder.{h,cc}).
struct LockOrderGraph {
  std::vector<LockClassDesc> classes;
  std::vector<LockEdge> edges;
  std::vector<LockViolation> violations;
  uint64_t acquisitions = 0;
};

class LockRegistry {
 public:
  static LockRegistry& Instance();

  LockRegistry(const LockRegistry&) = delete;
  LockRegistry& operator=(const LockRegistry&) = delete;

  /// Returns the class id (>= 1; 0 means "unregistered" and is ignored by
  /// the hooks). Re-registering an existing name returns the same id.
  uint32_t RegisterClass(const std::string& name, int rank, bool allows_io);

  /// Called before a blocking acquire (or after a successful try-acquire,
  /// with try_acquire=true). Records edges from all locks held by the
  /// calling thread and flags violations; then pushes the lock onto the
  /// thread's held stack.
  void OnAcquire(uint32_t cls, LockMode mode, bool try_acquire = false);

  /// Pops the most recent hold of `cls` from the calling thread's stack.
  void OnRelease(uint32_t cls);

  /// Called by leaf DiskManager backends around page I/O: flags every held
  /// lock whose class has allows_io=false.
  void OnIo();

  /// Site-annotation stack (see ScopedLockSite / PSE_LOCKDEP_SCOPE).
  void PushSite(const char* site);
  void PopSite();

  LockOrderGraph Snapshot() const;
  size_t violation_count() const;

  /// Drops recorded edges/violations/counters and the *calling thread's*
  /// held/site stacks; registered classes persist. Call between test
  /// scenarios, from a point where this thread holds no latches.
  void ClearEvents();

  // Implementation detail (defined in lock_registry.cc); public only so the
  // thread-local held-stack storage can live at namespace scope.
  struct HeldLock;

 private:
  LockRegistry() = default;

  void RecordViolation(LockViolationKind kind, const HeldLock& held,
                       const std::string& acquired_lock, const char* acquired_site,
                       LockMode acquired_mode, uint32_t acquired_cls);

  mutable std::mutex mu_;
  // Class storage must not invalidate references on growth: held-lock
  // entries cache `const std::string*` into these descriptors.
  std::map<uint32_t, LockClassDesc> classes_;
  std::unordered_map<std::string, uint32_t> by_name_;
  std::map<std::pair<uint32_t, uint32_t>, LockEdge> edges_;
  std::vector<LockViolation> violations_;
  // Dedup: one violation per (kind, held class, acquired class).
  std::set<std::tuple<uint8_t, uint32_t, uint32_t>> reported_;
  uint64_t acquisitions_ = 0;
};

/// Annotates the code region a latch acquisition happens in, so violations
/// name "MigrationExecutor::CopyTarget" rather than a line in rw_latch.h.
/// Always compiled (trivially cheap); the PSE_LOCKDEP_SCOPE macro below
/// compiles away entirely in non-lockdep builds.
class ScopedLockSite {
 public:
  explicit ScopedLockSite(const char* site) { LockRegistry::Instance().PushSite(site); }
  ~ScopedLockSite() { LockRegistry::Instance().PopSite(); }
  ScopedLockSite(const ScopedLockSite&) = delete;
  ScopedLockSite& operator=(const ScopedLockSite&) = delete;
};

/// Instrumented std::mutex. Drop-in for the buffer-pool / serving-schema
/// mutexes: satisfies Lockable, adds lockdep registration. With PSE_LOCKDEP
/// off the hooks expand to nothing and the class is exactly a std::mutex.
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void LockdepRegister(const std::string& name, int rank, bool allows_io);

  void lock();
  bool try_lock();
  void unlock();

 private:
  std::mutex mu_;
#ifdef PSE_LOCKDEP
  uint32_t lockdep_class_ = 0;
#endif
};

#ifdef PSE_LOCKDEP
#define PSE_LOCKDEP_CONCAT2(a, b) a##b
#define PSE_LOCKDEP_CONCAT(a, b) PSE_LOCKDEP_CONCAT2(a, b)
#define PSE_LOCKDEP_SCOPE(site) \
  ::pse::ScopedLockSite PSE_LOCKDEP_CONCAT(pse_lockdep_scope_, __LINE__)(site)
#define PSE_LOCKDEP_ACQUIRE(cls, mode) \
  ::pse::LockRegistry::Instance().OnAcquire((cls), (mode))
#define PSE_LOCKDEP_TRY_ACQUIRED(cls, mode) \
  ::pse::LockRegistry::Instance().OnAcquire((cls), (mode), /*try_acquire=*/true)
#define PSE_LOCKDEP_RELEASE(cls) ::pse::LockRegistry::Instance().OnRelease(cls)
#define PSE_LOCKDEP_IO() ::pse::LockRegistry::Instance().OnIo()
#else
#define PSE_LOCKDEP_SCOPE(site) static_cast<void>(0)
#define PSE_LOCKDEP_ACQUIRE(cls, mode) static_cast<void>(0)
#define PSE_LOCKDEP_TRY_ACQUIRED(cls, mode) static_cast<void>(0)
#define PSE_LOCKDEP_RELEASE(cls) static_cast<void>(0)
#define PSE_LOCKDEP_IO() static_cast<void>(0)
#endif

// The hook macros swallow their arguments textually, so these bodies
// reference lockdep_class_ only in PSE_LOCKDEP builds; otherwise each method
// is exactly its std::mutex counterpart.
inline void Mutex::lock() {
  PSE_LOCKDEP_ACQUIRE(lockdep_class_, LockMode::kExclusive);
  mu_.lock();
}

inline bool Mutex::try_lock() {
  if (!mu_.try_lock()) return false;
  PSE_LOCKDEP_TRY_ACQUIRED(lockdep_class_, LockMode::kExclusive);
  return true;
}

inline void Mutex::unlock() {
  mu_.unlock();
  PSE_LOCKDEP_RELEASE(lockdep_class_);
}

inline void Mutex::LockdepRegister(const std::string& name, int rank, bool allows_io) {
#ifdef PSE_LOCKDEP
  lockdep_class_ = LockRegistry::Instance().RegisterClass(name, rank, allows_io);
#else
  static_cast<void>(name);
  static_cast<void>(rank);
  static_cast<void>(allows_io);
#endif
}

}  // namespace pse
