#include "jobs/checkpoint.h"

#include <cstdio>
#include <cstring>

#include "jobs/trace_digest.h"
#include "obs/fsio.h"

namespace lpa::jobs {

namespace {

// Host byte order throughout: a checkpoint is a same-machine artifact.
void putBytes(std::vector<std::uint8_t>& out, const void* data,
              std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  putBytes(out, &v, sizeof(v));
}

/// Reads a T from buf[pos..size), advancing `pos`; false on truncation.
template <typename T>
bool get(const std::uint8_t* buf, std::size_t size, std::size_t& pos, T& v) {
  if (pos > size || size - pos < sizeof(T)) return false;
  std::memcpy(&v, buf + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

std::optional<Checkpoint> fail(std::string* whyNot, const char* reason) {
  if (whyNot) *whyNot = reason;
  return std::nullopt;
}

}  // namespace

void saveCheckpoint(const std::string& path, const Checkpoint& cp) {
  std::vector<std::uint8_t> buf;
  putBytes(buf, kCheckpointMagic, sizeof(kCheckpointMagic));
  put<std::uint64_t>(buf, cp.fingerprint);
  put<std::uint64_t>(buf, cp.seed);
  put<std::uint32_t>(buf, cp.numSamples);
  put<std::uint32_t>(buf, cp.groupTraces);
  put<std::uint64_t>(buf, cp.groupsTotal);
  put<std::uint64_t>(buf, cp.completedGroups);
  put<std::uint64_t>(buf, cp.groupDigests.size());
  for (std::uint64_t d : cp.groupDigests) put<std::uint64_t>(buf, d);
  put<std::uint64_t>(buf, cp.lineage.size());
  for (const std::string& s : cp.lineage) {
    put<std::uint64_t>(buf, s.size());
    putBytes(buf, s.data(), s.size());
  }
  put<std::uint64_t>(buf, cp.traces.size());
  for (std::size_t i = 0; i < cp.traces.size(); ++i) {
    buf.push_back(cp.traces.label(i));
    putBytes(buf, cp.traces.trace(i), cp.numSamples * sizeof(double));
  }
  put<std::uint64_t>(buf, digestOfBytes(buf.data(), buf.size()));

  obs::atomicWriteFile(
      path, std::string(reinterpret_cast<const char*>(buf.data()),
                        buf.size()));
}

std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot) {
  if (whyNot) whyNot->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return fail(whyNot, "no checkpoint file");
  std::vector<std::uint8_t> buf;
  {
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      buf.insert(buf.end(), chunk, chunk + got);
    }
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError) return fail(whyNot, "read error");
  }

  const std::size_t size = buf.size();
  if (size < sizeof(kCheckpointMagic) + sizeof(std::uint64_t)) {
    return fail(whyNot, "file too short");
  }
  if (std::memcmp(buf.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return fail(whyNot, "bad magic");
  }
  // Whole-file checksum first: any torn tail or flipped byte fails here
  // before we interpret a single length field.
  const std::size_t body = size - sizeof(std::uint64_t);
  std::uint64_t storedSum = 0;
  {
    std::size_t pos = body;
    if (!get(buf.data(), size, pos, storedSum)) {
      return fail(whyNot, "file too short");
    }
  }
  if (digestOfBytes(buf.data(), body) != storedSum) {
    return fail(whyNot, "checksum mismatch (torn or corrupt file)");
  }

  Checkpoint cp;
  std::size_t pos = sizeof(kCheckpointMagic);
  std::uint64_t numDigests = 0, numLineage = 0, numTraces = 0;
  if (!get(buf.data(), body, pos, cp.fingerprint) ||
      !get(buf.data(), body, pos, cp.seed) ||
      !get(buf.data(), body, pos, cp.numSamples) ||
      !get(buf.data(), body, pos, cp.groupTraces) ||
      !get(buf.data(), body, pos, cp.groupsTotal) ||
      !get(buf.data(), body, pos, cp.completedGroups) ||
      !get(buf.data(), body, pos, numDigests)) {
    return fail(whyNot, "truncated header");
  }
  if (cp.numSamples == 0) return fail(whyNot, "zero samples per trace");
  if (numDigests != cp.completedGroups ||
      numDigests > (body - pos) / sizeof(std::uint64_t)) {
    return fail(whyNot, "group-digest count inconsistent");
  }
  cp.groupDigests.resize(numDigests);
  for (std::uint64_t i = 0; i < numDigests; ++i) {
    if (!get(buf.data(), body, pos, cp.groupDigests[i])) {
      return fail(whyNot, "truncated group digests");
    }
  }
  // Every lineage entry carries at least its 8-byte length.
  if (!get(buf.data(), body, pos, numLineage) ||
      numLineage > (body - pos) / sizeof(std::uint64_t)) {
    return fail(whyNot, "lineage count inconsistent");
  }
  cp.lineage.reserve(numLineage);
  for (std::uint64_t i = 0; i < numLineage; ++i) {
    std::uint64_t len = 0;
    if (!get(buf.data(), body, pos, len) || len > body - pos) {
      return fail(whyNot, "truncated lineage entry");
    }
    cp.lineage.emplace_back(reinterpret_cast<const char*>(buf.data() + pos),
                            len);
    pos += len;
  }
  const std::size_t traceBytes =
      1 + static_cast<std::size_t>(cp.numSamples) * sizeof(double);
  if (!get(buf.data(), body, pos, numTraces) ||
      numTraces > (body - pos) / traceBytes) {
    return fail(whyNot, "trace count inconsistent");
  }
  cp.traces = TraceSet(cp.numSamples);
  cp.traces.reserve(numTraces);
  for (std::uint64_t i = 0; i < numTraces; ++i) {
    const std::uint8_t label = buf[pos++];
    if (label >= cp.traces.numClasses()) {
      return fail(whyNot, "trace label out of range");
    }
    std::vector<double> samples(cp.numSamples);
    std::memcpy(samples.data(), buf.data() + pos,
                cp.numSamples * sizeof(double));
    pos += cp.numSamples * sizeof(double);
    cp.traces.add(label, std::move(samples));
  }
  if (pos != body) return fail(whyNot, "trailing bytes after payload");
  return cp;
}

}  // namespace lpa::jobs
