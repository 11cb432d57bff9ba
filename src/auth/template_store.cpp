// mandilint: allow-file(no-throw-in-datapath) -- serialization keeps the
// legacy throwing contract; try_load / save_file / load_file are the typed
// path and never let these escape.
#include "auth/template_store.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/crc32.h"
#include "common/error.h"
#include "common/io.h"
#include "common/obs.h"
#include "nn/serialize.h"

namespace mandipass::auth {

namespace {
constexpr const char* kStoreTagV1 = "MANDIPASS-STORE-V1";
constexpr const char* kStoreTagV2 = "MANDIPASS-STORE-V2";
constexpr std::size_t kStoreTagLength = 18;  ///< both tags, by design
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 30;

/// Reads the store magic without committing to a version (expect_tag
/// would). Both known tags are 18 bytes, so any other claimed length is
/// already corruption.
std::string read_store_tag(std::istream& is) {
  const std::uint64_t len = nn::read_u64(is);
  if (len != kStoreTagLength) {
    throw SerializationError("bad template-store magic length");
  }
  std::string tag(kStoreTagLength, '\0');
  common::read_exact(is, tag.data(), tag.size(), "store magic");
  return tag;
}

/// Slurps `path`; false when the file cannot be opened (e.g. absent).
bool read_file_into(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  if (is.bad()) {
    return false;
  }
  out = ss.str();
  return true;
}

/// Writes `bytes` to `path` via `path.tmp` + flush + atomic rename, so a
/// crash mid-write can never leave a torn file under the final name.
/// Throws IoFailure / SerializationError on failure (tmp file removed by
/// the caller's cleanup).
void write_file_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw common::IoFailure(common::ErrorCode::IoError, "cannot open " + tmp + " for writing");
    }
    common::write_exact(os, bytes.data(), bytes.size(), "store image");
    os.flush();
    if (!os) {
      throw common::IoFailure(common::ErrorCode::IoError, "flush failed on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw common::IoFailure(common::ErrorCode::IoError, "rename " + tmp + " -> " + path +
                                                            " failed");
  }
}

/// True when `bytes` parse as a complete, checksum-valid store image.
bool validate_image(const std::string& bytes) {
  TemplateStore probe;
  std::istringstream is(bytes, std::ios::binary);
  return probe.try_load(is).ok();
}
}  // namespace

void TemplateStore::enroll(const std::string& user, StoredTemplate tmpl) {
  MANDIPASS_EXPECTS(!user.empty());
  MANDIPASS_EXPECTS(!tmpl.data.empty());
  store_[user] = std::move(tmpl);
}

std::optional<StoredTemplate> TemplateStore::lookup(const std::string& user) const {
  const auto it = store_.find(user);
  if (it == store_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool TemplateStore::revoke(const std::string& user) {
  return store_.erase(user) > 0;
}

void TemplateStore::save_body(std::ostream& os) const {
  nn::write_u64(os, store_.size());
  for (const auto& [user, tmpl] : store_) {
    nn::write_tag(os, user);
    nn::write_u64(os, tmpl.matrix_seed);
    nn::write_u64(os, tmpl.key_version);
    nn::write_u64(os, tmpl.data.size());
    common::write_exact(os, tmpl.data.data(), tmpl.data.size() * sizeof(float),
                        "template data");
  }
}

void TemplateStore::save(std::ostream& os) const {
  // Frame the payload with its size and CRC so load() can prove the whole
  // image arrived intact before trusting a single record.
  std::ostringstream payload_os(std::ios::binary);
  save_body(payload_os);
  const std::string payload = payload_os.str();
  nn::write_tag(os, kStoreTagV2);
  nn::write_u64(os, payload.size());
  nn::write_u64(os, common::crc32(payload));
  common::write_exact(os, payload.data(), payload.size(), "store payload");
}

void TemplateStore::load_body(std::istream& is) {
  const std::uint64_t count = nn::read_u64(is);
  if (count > (1ULL << 20)) {
    throw SerializationError("implausible template count");
  }
  std::unordered_map<std::string, StoredTemplate> fresh;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = nn::read_u64(is);
    if (name_len == 0 || name_len > 4096) {
      throw SerializationError("implausible user-name length");
    }
    std::string user(static_cast<std::size_t>(name_len), '\0');
    common::read_exact(is, user.data(), user.size(), "user name");
    StoredTemplate tmpl;
    tmpl.matrix_seed = nn::read_u64(is);
    tmpl.key_version = static_cast<std::uint32_t>(nn::read_u64(is));
    const std::uint64_t dim = nn::read_u64(is);
    if (dim == 0 || dim > (1ULL << 24)) {
      throw SerializationError("implausible template dimension");
    }
    tmpl.data.resize(dim);
    common::read_exact(is, tmpl.data.data(), tmpl.data.size() * sizeof(float),
                       "template data");
    fresh[user] = std::move(tmpl);
  }
  store_ = std::move(fresh);
}

void TemplateStore::load(std::istream& is) {
  const std::string tag = read_store_tag(is);
  if (tag == kStoreTagV1) {
    // Legacy unframed stream: no checksum to verify, parse directly.
    load_body(is);
    return;
  }
  if (tag != kStoreTagV2) {
    throw SerializationError("unknown template-store magic '" + tag + "'");
  }
  const std::uint64_t payload_size = nn::read_u64(is);
  if (payload_size > kMaxPayloadBytes) {
    throw SerializationError("implausible store payload size");
  }
  const std::uint64_t expected_crc = nn::read_u64(is);
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  common::read_exact(is, payload.data(), payload.size(), "store payload");
  const std::uint32_t actual_crc = common::crc32(payload);
  if (actual_crc != expected_crc) {
    throw SerializationError("template-store CRC mismatch");
  }
  std::istringstream payload_is(payload, std::ios::binary);
  load_body(payload_is);
}

common::Result<void> TemplateStore::try_load(std::istream& is) {
  try {
    load(is);
    return {};
  } catch (const common::IoFailure& f) {
    return common::make_error(f.code(), f.what());
  } catch (const mandipass::Error& e) {
    return common::make_error(common::ErrorCode::CorruptData, e.what());
  }
}

void TemplateStore::save_file_once(const std::string& path) const {
  // 1. Full new-generation image in memory first: a fault while
  //    serialising aborts before any disk mutation.
  std::ostringstream image_os(std::ios::binary);
  save(image_os);
  const std::string image = image_os.str();
  // 2. Rotate a *validated* primary into the sidecar backup. A primary
  //    that fails its checksum is never allowed to clobber a good backup
  //    (that backup may be the only intact generation left).
  std::string previous;
  if (read_file_into(path, previous) && validate_image(previous)) {
    write_file_atomic(path + ".bak", previous);
  }
  // 3+4. Temp write, flush, atomic publish.
  write_file_atomic(path, image);
}

common::Result<void> TemplateStore::save_file(const std::string& path, int max_retries,
                                              const resilience::BackoffPolicy& backoff) const {
  MANDIPASS_EXPECTS(max_retries >= 0);
  for (int attempt = 0;; ++attempt) {
    try {
      save_file_once(path);
      MANDIPASS_OBS_COUNT("auth.store.save_ok");
      return {};
    } catch (const common::IoFailure& f) {
      std::remove((path + ".tmp").c_str());
      std::remove((path + ".bak.tmp").c_str());
      if (f.code() != common::ErrorCode::IoError || attempt >= max_retries) {
        MANDIPASS_OBS_COUNT("auth.store.save_failed");
        return common::make_error(f.code(), std::string("save failed: ") + f.what());
      }
      MANDIPASS_OBS_COUNT("auth.store.save_retry");
      // Deterministic exponential backoff; the sleep goes through the
      // resilience hook so tests capture the exact delay sequence.
      resilience::retry_sleep_us(backoff.delay_us(attempt));
    } catch (const mandipass::Error& e) {
      std::remove((path + ".tmp").c_str());
      std::remove((path + ".bak.tmp").c_str());
      MANDIPASS_OBS_COUNT("auth.store.save_failed");
      return common::make_error(common::ErrorCode::IoError,
                                std::string("save failed: ") + e.what());
    }
  }
}

common::Result<LoadReport> TemplateStore::load_file(const std::string& path) {
  LoadReport report;
  std::string bytes;
  const bool primary_exists = read_file_into(path, bytes);
  if (primary_exists) {
    std::istringstream is(bytes, std::ios::binary);
    if (try_load(is).ok()) {
      MANDIPASS_OBS_COUNT("auth.store.load_ok");
      report.source = LoadSource::Primary;
      report.templates = size();
      return report;
    }
    report.primary_corrupt = true;
    MANDIPASS_OBS_COUNT("auth.store.load_corrupt");
  }
  std::string bak_bytes;
  if (read_file_into(path + ".bak", bak_bytes)) {
    std::istringstream is(bak_bytes, std::ios::binary);
    if (try_load(is).ok()) {
      MANDIPASS_OBS_COUNT("auth.store.load_recovered");
      // Best-effort self-heal: put the good generation back under the
      // primary name. The load already succeeded, so a failure here only
      // means the next load recovers from the backup again.
      try {
        write_file_atomic(path, bak_bytes);
      } catch (const mandipass::Error&) {
        std::remove((path + ".tmp").c_str());
        MANDIPASS_OBS_COUNT("auth.store.restore_failed");
      }
      report.source = LoadSource::Backup;
      report.templates = size();
      return report;
    }
  }
  if (report.primary_corrupt) {
    return common::make_error(common::ErrorCode::CorruptData,
                              "template store '" + path + "' failed validation and no usable "
                              "backup generation exists");
  }
  return common::make_error(common::ErrorCode::IoError,
                            "cannot open template store '" + path + "'");
}

}  // namespace mandipass::auth
