// Peak-RSS probing for the bench harness.
//
// A probe window is reset_peak_rss() -> run -> peak_rss_bytes(). On Linux
// the peak is VmHWM from /proc/self/status, which writing "5" to
// /proc/self/clear_refs re-arms to the current RSS. getrusage's ru_maxrss
// is not re-armed by that write and never drops below the high-water mark
// of the image the process was exec'd from, so it is only the fallback
// (non-Linux, or no /proc): a monotone process-lifetime mark — still an
// upper bound, never an undercount.
#pragma once

#include <cstddef>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dgr::bench {

/// Peak resident set size in bytes since the last successful
/// reset_peak_rss() (0 where unsupported).
inline std::size_t peak_rss_bytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr)
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    std::fclose(f);
    if (found) return static_cast<std::size_t>(kib) * 1024;
  }
#endif
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Re-arm the peak-RSS high-water mark to the current RSS. Returns true if
/// the kernel accepted the reset (Linux with clear_refs support).
inline bool reset_peak_rss() {
#if defined(__GLIBC__)
  // Hand freed heap back to the kernel first: without this the new "peak"
  // floor is whatever the allocator retained from earlier runs in the same
  // process, and small-n measurements inherit a big-n floor.
  malloc_trim(0);
#endif
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  std::fclose(f);
  return ok;
#else
  return false;
#endif
}

}  // namespace dgr::bench
