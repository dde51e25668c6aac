// Virtual time for the discrete-event fabric.
//
// All simulated durations are microseconds, matching the units of the
// paper's plots. Double precision keeps the arithmetic simple; runs are
// bit-deterministic because every platform executes the same FP ops.
#pragma once

namespace nmad::simnet {

using SimTime = double;  // microseconds since simulation start

// Converts MB/s (decimal megabytes, as NIC datasheets quote) to µs/byte.
inline constexpr double us_per_byte(double mega_bytes_per_second) {
  return 1.0 / mega_bytes_per_second;  // 1 byte / (MB/s) == 1e-6 s / MB == 1 µs / MB
}

// Transfer time of `bytes` at `mega_bytes_per_second`.
inline constexpr SimTime wire_time(double bytes,
                                   double mega_bytes_per_second) {
  return bytes / mega_bytes_per_second;
}

}  // namespace nmad::simnet
