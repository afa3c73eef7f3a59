#include "net/launcher.h"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/check.h"

namespace gcs::net {
namespace {

// Child-side report framing on the pipe: status byte (0 = ok, 1 = body
// threw), u64 length, then the report or the error message.
void pipe_write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      _exit(13);  // parent vanished; nothing sensible left to do
    }
    done += static_cast<std::size_t>(n);
  }
}

bool pipe_read_exact(int fd, void* data, std::size_t size) {
  auto* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

[[noreturn]] void run_child(int write_fd, int rank,
                            const std::function<ByteBuffer(int)>& body) {
  std::uint8_t status = 0;
  ByteBuffer report;
  try {
    report = body(rank);
  } catch (const std::exception& e) {
    status = 1;
    const char* what = e.what();
    report.assign(reinterpret_cast<const std::byte*>(what),
                  reinterpret_cast<const std::byte*>(what +
                                                     std::strlen(what)));
  } catch (...) {
    status = 1;
    static constexpr char kUnknown[] = "unknown exception";
    report.assign(reinterpret_cast<const std::byte*>(kUnknown),
                  reinterpret_cast<const std::byte*>(kUnknown) +
                      sizeof(kUnknown) - 1);
  }
  pipe_write_all(write_fd, &status, 1);
  const std::uint64_t len = report.size();
  pipe_write_all(write_fd, &len, sizeof(len));
  if (!report.empty()) pipe_write_all(write_fd, report.data(), report.size());
  ::close(write_fd);
  // _exit, not exit: the child must not run the parent's atexit handlers
  // or flush its inherited stdio buffers twice.
  _exit(status == 0 ? 0 : 1);
}

std::string describe_wait_status(int wstatus) {
  if (WIFEXITED(wstatus)) {
    return "exit code " + std::to_string(WEXITSTATUS(wstatus));
  }
  if (WIFSIGNALED(wstatus)) {
    return std::string("signal ") + std::to_string(WTERMSIG(wstatus));
  }
  return "unknown wait status " + std::to_string(wstatus);
}

}  // namespace

ForkedWorkers::ForkedWorkers(int first_rank, int world_size,
                             const std::function<ByteBuffer(int)>& body) {
  GCS_CHECK(first_rank >= 0 && first_rank <= world_size);
  for (int rank = first_rank; rank < world_size; ++rank) {
    int fds[2];
    if (::pipe(fds) != 0) {
      const int err = errno;
      kill_and_reap();  // already-spawned children must not leak
      throw Error("ForkedWorkers: pipe failed: " +
                  std::string(std::strerror(err)));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      kill_and_reap();
      throw Error("ForkedWorkers: fork failed: " +
                  std::string(std::strerror(err)));
    }
    if (pid == 0) {
      ::close(fds[0]);
      // Reports from ranks this child is not: close inherited read ends.
      for (const Child& c : children_) ::close(c.pipe_read);
      run_child(fds[1], rank, body);  // never returns
    }
    ::close(fds[1]);
    children_.push_back(Child{rank, static_cast<int>(pid), fds[0]});
  }
}

ForkedWorkers::~ForkedWorkers() {
  if (!joined_) kill_and_reap();
}

void ForkedWorkers::kill_and_reap() noexcept {
  for (const Child& c : children_) {
    ::close(c.pipe_read);
    ::kill(c.pid, SIGKILL);
  }
  for (const Child& c : children_) {
    int wstatus = 0;
    while (::waitpid(c.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  children_.clear();
}

std::vector<ForkedWorkers::Outcome> ForkedWorkers::join_outcomes() {
  GCS_CHECK(!joined_);
  joined_ = true;
  std::vector<Outcome> outcomes;
  for (const Child& c : children_) {
    Outcome out;
    out.rank = c.rank;
    std::uint8_t status = 2;
    std::uint64_t len = 0;
    ByteBuffer report;
    const bool framed = pipe_read_exact(c.pipe_read, &status, 1) &&
                        pipe_read_exact(c.pipe_read, &len, sizeof(len));
    if (framed) {
      report.resize(static_cast<std::size_t>(len));
      if (!report.empty() &&
          !pipe_read_exact(c.pipe_read, report.data(), report.size())) {
        status = 2;
      }
    }
    ::close(c.pipe_read);
    int wstatus = 0;
    while (::waitpid(c.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    out.wait_status = describe_wait_status(wstatus);
    if (WIFEXITED(wstatus)) out.exit_code = WEXITSTATUS(wstatus);
    if (WIFSIGNALED(wstatus)) out.exit_signal = WTERMSIG(wstatus);
    out.reported = status != 2;
    if (status == 0 && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
      out.ok = true;
      out.report = std::move(report);
    } else if (status == 1) {
      out.error = std::string(reinterpret_cast<const char*>(report.data()),
                              report.size());
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

std::vector<ByteBuffer> ForkedWorkers::join() {
  auto outcomes = join_outcomes();
  std::vector<ByteBuffer> reports;
  std::string first_error;
  for (auto& out : outcomes) {
    if (out.ok) {
      reports.push_back(std::move(out.report));
      continue;
    }
    if (first_error.empty()) {
      // `reported` distinguishes a body that threw (its message may be
      // empty) from a child that died before framing anything.
      const std::string cause =
          out.reported
              ? (out.error.empty() ? "body failed without a message"
                                   : out.error)
              : "died without reporting (" + out.wait_status + ")";
      first_error =
          "worker rank " + std::to_string(out.rank) + ": " + cause;
    }
  }
  if (!first_error.empty()) throw Error(first_error);
  return reports;
}

std::string unique_unix_rendezvous() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t seq = counter.fetch_add(1);
  return "unix:/tmp/gcs-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq);
}

void run_socket_ranks(
    int world_size, const std::function<void(SocketFabric&, int rank)>& body,
    int recv_timeout_ms) {
  const std::string rendezvous = unique_unix_rendezvous();
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        SocketFabricConfig config;
        config.rendezvous = rendezvous;
        config.world_size = world_size;
        config.rank = rank;
        config.recv_timeout_ms = recv_timeout_ms;
        SocketFabric fabric(config);
        body(fabric, rank);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gcs::net
