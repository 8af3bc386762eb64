#include "server.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

/// fork + exec with the given fds on the child's stdin/stdout/stderr.
pid_t spawn(const std::string& binary, const std::vector<std::string>& args, int in_fd,
            int out_fd, int err_fd) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::dup2(in_fd, STDIN_FILENO);
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe2 failed");
  }
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) log_fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  try {
    pid_ = spawn(binary, args, in_pipe[0], out_pipe[1], log_fd);
  } catch (...) {
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1], log_fd}) ::close(fd);
    throw;
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ::close(log_fd);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
}

ServerProcess::~ServerProcess() {
  close_fd(to_child_);
  close_fd(from_child_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

bool ServerProcess::write_all(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t wrote = ::write(to_child_, bytes.data() + sent, bytes.size() - sent);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool ServerProcess::read_line(std::string& line) {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scan_from_);
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      scan_from_ = 0;
      return true;
    }
    scan_from_ = buffer_.size();
    char chunk[1 << 16];
    const ssize_t got = ::read(from_child_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

ServerProcess::Exit ServerProcess::finish() {
  close_fd(to_child_);
  Exit exit;
  int status = 0;
  rusage usage{};
  pid_t reaped = -1;
  do {
    reaped = ::wait4(pid_, &status, 0, &usage);
  } while (reaped < 0 && errno == EINTR);
  close_fd(from_child_);
  if (reaped != pid_) return exit;
  pid_ = -1;
  exit.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  exit.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  return exit;
}

std::string run_capture(const std::string& binary, const std::vector<std::string>& args,
                        bool& ok) {
  ok = false;
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) return {};
  const int null_fd = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  pid_t pid = -1;
  try {
    pid = spawn(binary, args, null_fd, out_pipe[1], null_fd);
  } catch (...) {
    pid = -1;
  }
  ::close(out_pipe[1]);
  ::close(null_fd);
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(out_pipe[0], chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    out.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(out_pipe[0]);
  if (pid < 0) return out;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return out;
}

}  // namespace perfbench
