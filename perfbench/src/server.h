// The o2o_serve child process: spawned with a pipe pair on its stdin and
// stdout, driven line by line, and reaped with wait4 so its CPU time and
// peak RSS are read from the kernel's rusage rather than from inside the
// program under test.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `binary args...`; the child's stderr goes to `log_path`.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);
  /// Kills and reaps a child that finish() did not reap.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Writes every byte (blocking); false once the child closed its end.
  bool write_all(std::string_view bytes);
  /// Reads one '\n'-terminated line, terminator stripped; false on EOF.
  bool read_line(std::string& line);

  struct Exit {
    bool clean = false;       ///< exited normally with status 0
    double cpu_s = 0.0;       ///< user + system CPU of the child
    double peak_rss_mb = 0.0; ///< ru_maxrss
  };
  /// Closes the child's stdin, waits for it to drain and exit.
  Exit finish();

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  std::size_t scan_from_ = 0;
};

/// Runs `binary args...` to completion and returns its stdout; `ok` is
/// false when it could not start or exited non-zero.
std::string run_capture(const std::string& binary, const std::vector<std::string>& args,
                        bool& ok);

}  // namespace perfbench
