// Process-level measurement and daemon hygiene for the benchmark:
// CPU, I/O and peak RSS from /proc, per-socket TCP payload bytes from
// `ss -tinp`, and spawned wdl_peerd children that die with the
// benchmark.
#ifndef WDL_PERFBENCH_PROCSTAT_H_
#define WDL_PERFBENCH_PROCSTAT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace wdl::bench {

/// user + sys CPU of this process (all threads), in milliseconds.
double SelfCpuMs();
/// CPU time of process `pid` (its live threads), in ms.
double ProcessCpuMs(pid_t pid);
/// Peak resident set (VmHWM) of `pid` (0 = this process), in MB.
double PeakRssMb(pid_t pid);

struct ProcIo {
  uint64_t wchar = 0;  // bytes passed to write-like syscalls
  uint64_t syscw = 0;  // write-like syscalls
};
ProcIo ReadProcIo(pid_t pid);

/// TCP payload bytes sent over established sockets with a local or
/// peer port in `ports`, from `ss -tinp`: the total, and the part sent
/// by each owning process.
struct TcpBytes {
  uint64_t total_sent = 0;
  std::map<pid_t, uint64_t> sent_by_pid;
};
TcpBytes SampleTcpBytes(const std::set<int>& ports);

/// A child process started with PR_SET_PDEATHSIG, so it is killed if
/// the benchmark dies. Stop() (and the destructor) send SIGTERM, wait,
/// and escalate to SIGKILL; the child is always reaped.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess() { Stop(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Starts `argv[0]` with `argv`, stdout and stderr appended to
  /// `log_path`. Returns false (and logs why) on failure.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path);
  void Stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// A fresh directory under `root`, removed with its contents on
/// destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& root);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
};

/// Waits until `path` exists and is non-empty; false after `timeout_ms`.
bool WaitForFile(const std::string& path, int timeout_ms);

/// Reads a whole file ("" when missing).
std::string ReadFile(const std::string& path);

}  // namespace wdl::bench

#endif  // WDL_PERFBENCH_PROCSTAT_H_
