// Process-wide user-mode instruction and cycle counters (perf_event_open).
//
// Wall time on a shared host swings by tens of percent between runs of
// identical code, while the instructions a run retires repeat to a
// fraction of a percent; the benchmark therefore times every span both
// ways. Both counters are opened with `inherit`, before the program
// starts any thread, so every thread the engine spawns later counts
// into them: a read of an inherited counter sums the live child threads,
// and a thread that has exited has already folded its count into the
// parent. Reads are taken only while the engine is quiescent (between
// run calls, or after its workers have joined).
#ifndef PERFBENCH_PMU_HPP
#define PERFBENCH_PMU_HPP

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace perfbench {

struct PmuSample {
  double instructions = 0;
  double cycles = 0;
};

class Pmu {
 public:
  Pmu()
      : instructions_(open_counter(PERF_COUNT_HW_INSTRUCTIONS, "instructions")),
        cycles_(open_counter(PERF_COUNT_HW_CPU_CYCLES, "cycles")) {}
  ~Pmu() {
    ::close(instructions_);
    ::close(cycles_);
  }
  Pmu(const Pmu&) = delete;
  Pmu& operator=(const Pmu&) = delete;

  /// Instructions must never be multiplexed: the hardware keeps a fixed
  /// counter for them, and a scaled estimate would not repeat. Cycles may
  /// share a general-purpose counter with other users of the PMU and are
  /// scaled by enabled/running time.
  [[nodiscard]] PmuSample read() const {
    const Raw i = read_raw(instructions_, "instructions");
    const Raw c = read_raw(cycles_, "cycles");
    if (i.running != i.enabled) {
      throw std::runtime_error(
          "perfbench: the instruction counter was multiplexed; counts would "
          "be estimates");
    }
    PmuSample s;
    s.instructions = static_cast<double>(i.value);
    s.cycles = c.running == 0 ? 0.0
                              : static_cast<double>(c.value) *
                                    static_cast<double>(c.enabled) /
                                    static_cast<double>(c.running);
    return s;
  }

 private:
  struct Raw {
    std::uint64_t value = 0;
    std::uint64_t enabled = 0;
    std::uint64_t running = 0;
  };

  static int open_counter(std::uint64_t config, const char* what) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = config;
    attr.inherit = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("perfbench: perf_event_open(") +
                               what + ") failed: " + std::strerror(errno) +
                               " (needs kernel.perf_event_paranoid <= 2 and a "
                               "PMU visible to this process)");
    }
    return static_cast<int>(fd);
  }

  static Raw read_raw(int fd, const char* what) {
    Raw r;
    if (::read(fd, &r, sizeof r) != static_cast<ssize_t>(sizeof r)) {
      throw std::runtime_error(std::string("perfbench: reading the ") + what +
                               " counter failed");
    }
    return r;
  }

  int instructions_;
  int cycles_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PMU_HPP
