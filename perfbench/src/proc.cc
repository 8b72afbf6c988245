#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <thread>

#include "bench.h"
#include "serve/client.h"

namespace perfbench {

namespace {

std::vector<char*> ArgvPointers(const std::vector<std::string>& argv) {
  std::vector<char*> ptrs;
  for (const std::string& arg : argv) ptrs.push_back(const_cast<char*>(arg.c_str()));
  ptrs.push_back(nullptr);
  return ptrs;
}

/// In the forked child: die with the benchmark, redirect stdout/stderr, exec.
[[noreturn]] void ExecChild(const std::vector<std::string>& argv, int out_fd,
                            int err_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  dup2(out_fd, STDOUT_FILENO);
  dup2(err_fd, STDERR_FILENO);
  std::vector<char*> ptrs = ArgvPointers(argv);
  execv(ptrs[0], ptrs.data());
  _exit(127);
}

}  // namespace

Result<ChildResult> RunChild(const std::vector<std::string>& argv) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return Status::IoError("pipe failed");
  const int null_fd = open("/dev/null", O_WRONLY | O_CLOEXEC);
  const Clock::time_point start = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) ExecChild(argv, pipe_fds[1], null_fd);
  close(pipe_fds[1]);
  close(null_fd);
  ChildResult result;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(pipe_fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      result.out.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(pipe_fds[0]);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_s = SecondsBetween(start, Clock::now());
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

Daemon::~Daemon() { Stop(); }

Status Daemon::Start(const std::string& freshsel, const std::string& socket,
                     const std::string& log) {
  Stop();
  socket_ = socket;
  unlink(socket.c_str());
  const int log_fd =
      open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::IoError("cannot open " + log);
  const std::vector<std::string> argv = {freshsel, "serve", "--socket",
                                         socket};
  pid_ = fork();
  if (pid_ < 0) return Status::IoError("fork failed");
  if (pid_ == 0) ExecChild(argv, log_fd, log_fd);
  close(log_fd);
  const std::string ping = freshsel::serve::SerializeControlRequest(
      true, 0, freshsel::serve::RequestOp::kPing);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
  while (Clock::now() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("freshsel serve exited during start; see " +
                              log);
    }
    Result<freshsel::serve::Client> client =
        freshsel::serve::Client::ConnectUnix(socket);
    if (client.ok() && client->Call(ping).ok()) return Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop();
  return Status::Unavailable("freshsel serve did not answer within 120 s");
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  unlink(socket_.c_str());
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
