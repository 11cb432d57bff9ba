// Secure-enclave stand-in: a sealed in-memory template store with
// crash-safe persistence.
//
// The real system keeps the cancelable MandiblePrint template in the
// earphone's secure enclave. We model the enclave's *interface* — sealed
// storage addressed by user id, with the template only released to the
// verifier. What a compromised enclave leaks (Section VI's replay
// attacker "steals the MandiblePrint template stored in the secure
// enclave") is exactly what lookup() returns.
//
// Persistence (DESIGN.md §12) is versioned and checksummed:
//
//   V2 stream = [u64 18]["MANDIPASS-STORE-V2"][u64 payload_size]
//               [u64 crc32(payload)][payload]
//   payload   = [u64 count] then per record
//               [u64 len][user][u64 seed][u64 key_version][u64 dim][f32...]
//
// The legacy V1 stream (same layout, no size/CRC framing) still loads.
// save_file/load_file add crash safety on top: saves go write-temp →
// flush → atomic rename with a validated sidecar `.bak` generation, and
// loads fall back to the backup (restoring the primary) when the primary
// fails its checksum. The invariant the fault tests enforce: interrupt a
// save at *any* byte and load_file still returns the previous or the new
// generation in full — never a corrupt or partial store.
//
// Concurrency: TemplateStore itself is unsynchronized; concurrent access
// is the owner's job. BatchVerifier holds its store as
// MANDIPASS_GUARDED_BY(mutex_), so under the tsafety preset every access
// path is compile-time checked to hold that lock (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "auth/resilience/backoff.h"
#include "common/result.h"

namespace mandipass::auth {

/// A stored cancelable template plus its key-management metadata.
struct StoredTemplate {
  std::vector<float> data;          ///< Gaussian-transformed MandiblePrint
  std::uint64_t matrix_seed = 0;    ///< which Gaussian matrix produced it
  std::uint32_t key_version = 0;    ///< bumped on every re-key
};

/// Which on-disk image load_file ended up trusting.
enum class LoadSource : std::uint8_t { Primary, Backup };

/// What load_file found and did.
struct LoadReport {
  LoadSource source = LoadSource::Primary;
  bool primary_corrupt = false;  ///< primary existed but failed validation
  std::size_t templates = 0;     ///< records in the loaded generation
};

class TemplateStore {
 public:
  /// Seals a template for `user`. Overwrites any previous one.
  void enroll(const std::string& user, StoredTemplate tmpl);

  /// Fetches the sealed template (verification path).
  std::optional<StoredTemplate> lookup(const std::string& user) const;

  /// Deletes a user's template; returns false if absent.
  bool revoke(const std::string& user);

  std::size_t size() const { return store_.size(); }

  /// Persistence: binary dump/restore of every sealed template (what the
  /// enclave's sealed blob would hold across reboots). save() writes the
  /// CRC-framed V2 format; load() accepts V2 (checksum enforced) and
  /// legacy V1 streams, throws SerializationError on malformed input, and
  /// replaces the current contents only on success.
  void save(std::ostream& os) const;
  void load(std::istream& is);

  /// Typed-error variant of load(): CorruptData for checksum / framing
  /// failures, IoError for stream failures. Contents untouched on error.
  common::Result<void> try_load(std::istream& is);

  /// Crash-safe save to `path`:
  ///   1. serialize + checksum the new generation in memory;
  ///   2. if the current primary validates, rotate it to `path.bak`
  ///      (a corrupt primary never clobbers a good backup);
  ///   3. write `path.tmp`, flush, then atomically rename over `path`.
  /// Transient write failures (IoFailure carrying IoError) are retried up
  /// to `max_retries` times under the deterministic exponential backoff
  /// policy (resilience::BackoffPolicy; delays flow through the
  /// retry_sleep_us hook so tests capture the exact schedule);
  /// ENOSPC-class failures (NoSpace) are reported immediately. On any
  /// error the previous on-disk generation is still loadable.
  common::Result<void> save_file(const std::string& path, int max_retries = 3,
                                 const resilience::BackoffPolicy& backoff = {}) const;

  /// Crash-safe load from `path`: tries the primary, then `path.bak` when
  /// the primary is missing or fails its checksum. A successful backup
  /// load atomically restores the primary. Returns where the data came
  /// from; the in-memory contents are untouched on error.
  common::Result<LoadReport> load_file(const std::string& path);

 private:
  /// Writes / parses the unframed record payload shared by V1 and V2.
  void save_body(std::ostream& os) const;
  void load_body(std::istream& is);

  /// One save_file attempt (serialize → rotate backup → tmp → rename).
  void save_file_once(const std::string& path) const;

  std::unordered_map<std::string, StoredTemplate> store_;
};

}  // namespace mandipass::auth
