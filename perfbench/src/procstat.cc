#include "procstat.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace wdl::bench {
namespace {

std::string ProcPath(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/// "host:port" or "[v6]:port" -> port, or -1.
int PortOf(const std::string& endpoint) {
  size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) return -1;
  return std::atoi(endpoint.c_str() + colon + 1);
}

}  // namespace

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double SelfCpuMs() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double ProcessCpuMs(pid_t pid) {
  // /proc/<pid>/stat counts in clock ticks (10 ms); the first field of
  // each thread's schedstat is its time on a CPU in nanoseconds.
  uint64_t ns = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(ProcPath(pid, "task"), ec), end;
       !ec && it != end; it.increment(ec)) {
    std::string schedstat = ReadFile(it->path().string() + "/schedstat");
    ns += std::strtoull(schedstat.c_str(), nullptr, 10);
  }
  return static_cast<double>(ns) / 1e6;
}

double PeakRssMb(pid_t pid) {
  std::istringstream in(ReadFile(ProcPath(pid, "status")));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

ProcIo ReadProcIo(pid_t pid) {
  ProcIo io;
  std::istringstream in(ReadFile(ProcPath(pid, "io")));
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

TcpBytes SampleTcpBytes(const std::set<int>& ports) {
  TcpBytes result;
  // -H: no header. Each socket is one line "Recv-Q Send-Q local peer
  // users:((...,pid=N,...))" followed by a tab-indented info line that
  // carries bytes_sent:N.
  std::FILE* ss = popen("ss -tinpH state established 2>/dev/null", "r");
  if (ss == nullptr) return result;
  char buf[4096];
  bool counting = false;
  pid_t owner = 0;
  while (std::fgets(buf, sizeof(buf), ss) != nullptr) {
    std::string line(buf);
    if (line.empty()) continue;
    if (line[0] != '\t' && line[0] != ' ') {
      std::istringstream in(line);
      std::string recvq, sendq, local, peer;
      in >> recvq >> sendq >> local >> peer;
      counting = ports.count(PortOf(local)) > 0 || ports.count(PortOf(peer)) > 0;
      owner = 0;
      size_t at = line.find("pid=");
      if (at != std::string::npos) owner = std::atoi(line.c_str() + at + 4);
      continue;
    }
    if (!counting) continue;
    size_t at = line.find("bytes_sent:");
    if (at == std::string::npos) continue;
    uint64_t sent = std::strtoull(line.c_str() + at + 11, nullptr, 10);
    result.total_sent += sent;
    result.sent_by_pid[owner] += sent;
    counting = false;
  }
  pclose(ss);
  return result;
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& log_path) {
  if (argv.empty()) return false;
  // Everything the child needs is prepared before fork: between fork
  // and exec a multi-threaded parent's child may only make
  // async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                      0644);
  if (log_fd < 0) {
    std::fprintf(stderr, "cannot open %s: %s\n", log_path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // Die with the benchmark, even if it is SIGKILLed; if the parent is
    // already gone, do not start at all.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    // No inherited sockets: the benchmark's own listener and links
    // must not stay open in the daemon.
    ::syscall(SYS_close_range, 3u, ~0u, 0u);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  return true;
}

void ChildProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  // wdl_peerd polls its stop flag every idle millisecond; give it a
  // few seconds to exit cleanly before escalating.
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

ScratchDir::ScratchDir(const std::string& root) {
  static std::atomic<int> counter{0};
  std::string path = root + "/run-" + std::to_string(getpid()) + "-" +
                     std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (std::filesystem::create_directories(path, ec) && !ec) path_ = path;
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

bool WaitForFile(const std::string& path, int timeout_ms) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    if (std::filesystem::file_size(path, ec) > 0 && !ec) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace wdl::bench
