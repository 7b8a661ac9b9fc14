#include "jobs/checkpoint.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "obs/fsio.h"

namespace lpa::jobs {

namespace {

// Host byte order throughout: a checkpoint is a same-machine artifact.
template <typename T>
void put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Reads a T at buf + pos, advancing `pos` (the caller sized buf).
template <typename T>
T get(const std::uint8_t* buf, std::size_t& pos) {
  T v;
  std::memcpy(&v, buf + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

constexpr std::size_t kHeaderBody = sizeof(kCheckpointMagic) + 8 + 8 + 4 +
                                    4 + 8;  // everything but the checksum
constexpr std::size_t kHeaderBytes = kHeaderBody + sizeof(std::uint64_t);

std::optional<Checkpoint> fail(std::string* whyNot, const char* reason) {
  if (whyNot) *whyNot = reason;
  return std::nullopt;
}

}  // namespace

std::string lineageEntry(std::uint64_t k, std::uint64_t n,
                         const DigestAccumulator& prefix) {
  return "g" + std::to_string(k) + "/" + std::to_string(n) + ":" +
         prefix.hex();
}

void startCheckpoint(const std::string& path, const CheckpointHeader& header) {
  std::string buf(kCheckpointMagic, sizeof(kCheckpointMagic));
  put<std::uint64_t>(buf, header.fingerprint);
  put<std::uint64_t>(buf, header.seed);
  put<std::uint32_t>(buf, header.numSamples);
  put<std::uint32_t>(buf, header.groupTraces);
  put<std::uint64_t>(buf, header.totalTraces);
  put<std::uint64_t>(buf, digestOfBytes(buf.data(), buf.size()));
  obs::atomicWriteFile(path, buf);
}

void appendCheckpointGroup(const std::string& path, const TraceSet& ts,
                           std::size_t begin, std::size_t end) {
  const std::size_t sampleBytes = ts.numSamples() * sizeof(double);
  std::string buf;
  buf.reserve((end - begin) * (1 + sampleBytes) + sizeof(std::uint64_t));
  for (std::size_t i = begin; i < end; ++i) {
    buf.push_back(static_cast<char>(ts.label(i)));
    buf.append(reinterpret_cast<const char*>(ts.trace(i)), sampleBytes);
  }
  put<std::uint64_t>(buf, digestOfRange(ts, begin, end));
  obs::durableAppend(path, buf);
}

std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         std::string* whyNot) {
  if (whyNot) whyNot->clear();
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return fail(whyNot, "no checkpoint file");
  struct stat st;
  if (::fstat(::fileno(f.get()), &st) != 0) return fail(whyNot, "stat error");
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);

  std::uint8_t head[kHeaderBytes];
  if (size < kHeaderBytes ||
      std::fread(head, 1, kHeaderBytes, f.get()) != kHeaderBytes) {
    return fail(whyNot, "file too short for a header");
  }
  if (std::memcmp(head, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return fail(whyNot, "bad magic");
  }
  std::size_t pos = sizeof(kCheckpointMagic);
  Checkpoint cp;
  CheckpointHeader& h = cp.header;
  h.fingerprint = get<std::uint64_t>(head, pos);
  h.seed = get<std::uint64_t>(head, pos);
  h.numSamples = get<std::uint32_t>(head, pos);
  h.groupTraces = get<std::uint32_t>(head, pos);
  h.totalTraces = get<std::uint64_t>(head, pos);
  if (get<std::uint64_t>(head, pos) != digestOfBytes(head, kHeaderBody)) {
    return fail(whyNot, "header checksum mismatch");
  }
  if (h.numSamples == 0 || h.groupTraces == 0) {
    return fail(whyNot, "zero samples or traces per group");
  }
  const std::uint64_t groupsTotal = h.totalTraces / h.groupTraces +
                                    (h.totalTraces % h.groupTraces != 0);

  // Adopt whole records while their digests verify. Each record's size is
  // checked against the bytes left before anything is allocated for it.
  cp.bytes = kHeaderBytes;
  cp.traces = TraceSet(h.numSamples);
  const std::size_t sampleBytes = h.numSamples * sizeof(double);
  const std::uint64_t traceBytes = 1 + sampleBytes;
  std::vector<std::uint8_t> record;
  std::vector<double> samples;
  while (cp.completedGroups < groupsTotal) {
    const std::uint64_t begin = cp.completedGroups * h.groupTraces;
    const std::uint64_t n =
        std::min<std::uint64_t>(h.groupTraces, h.totalTraces - begin);
    const std::uint64_t left = size - cp.bytes;
    if (left < sizeof(std::uint64_t) ||
        n > (left - sizeof(std::uint64_t)) / traceBytes) {
      break;  // torn tail
    }
    record.resize(n * traceBytes + sizeof(std::uint64_t));
    if (std::fread(record.data(), 1, record.size(), f.get()) !=
        record.size()) {
      break;
    }
    samples.resize(h.numSamples);
    cp.traces.resize(begin + n);
    bool ok = true;
    for (std::uint64_t i = 0; ok && i < n; ++i) {
      const std::uint8_t* trace = record.data() + i * traceBytes;
      ok = trace[0] < cp.traces.numClasses();
      std::memcpy(samples.data(), trace + 1, sampleBytes);
      if (ok) cp.traces.set(begin + i, trace[0], samples.data());
    }
    std::size_t at = n * traceBytes;
    if (!ok || get<std::uint64_t>(record.data(), at) !=
                   digestOfRange(cp.traces, begin, begin + n)) {
      cp.traces.resize(begin);
      break;  // corrupt record
    }
    cp.prefix.addRange(cp.traces, begin, begin + n);
    cp.bytes += record.size();
    ++cp.completedGroups;
    cp.lineage.push_back(
        lineageEntry(cp.completedGroups, groupsTotal, cp.prefix));
  }
  return cp;
}

}  // namespace lpa::jobs
