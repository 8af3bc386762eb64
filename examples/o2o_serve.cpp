// o2o_serve: the streaming dispatch service as a process.
//
//   ./build/examples/o2o_serve [mode] [--dispatcher=KIND] [--sharing]
//       [--pipeline-depth=N] [--ingest-capacity=N] [--threads=N]
//       [--distance-backend=SPEC] [taxis rate_scale seed]
//
// `--threads=N` runs the matcher's parallel loops on N lanes: the
// calling thread plus N - 1 pool workers (default: one lane per core, at
// most 16). N must be an integer in [1, 256], else o2o_serve exits 2. It
// is a process setting, not part of DispatchConfig, so `--print-config`
// does not show it.
//
// `--distance-backend=` picks the distance function through the pluggable
// backend factory (geo/backend.h): euclid (default), manhattan,
// circuity[:F], dijkstra:CITY.gr,CITY.co or dijkstra:CITY.osm.
// `--print-config` echoes the resolved backend kind plus its graph
// fingerprint, so a deployment's distance function is auditable from the
// config snapshot alone.
//
// Modes (pick one):
//   --stdio            serve ndjson frames on stdin/stdout (default)
//   --tcp=PORT         serve one ndjson client over TCP on PORT
//   --replay           in-process differential: stream a synthetic day
//                      through the full wire codec + frame handoff and
//                      diff the report against the batch Simulator;
//                      exits nonzero on any mismatch
//   --replay-connect=REQ,RESP
//                      drive a *remote* server through a pair of pipes
//                      (e.g. mkfifo): frame events are written to REQ,
//                      responses read from RESP, and the resulting
//                      report is diffed against the batch run
//   --print-config     print the api version and the full
//                      DispatchConfig::describe() snapshot, then exit
//
// Wire protocol (ndjson, one JSON object per line):
//   -> {"v":1,"event":"order","order_id":N,"timestamp":S,...}
//   -> {"v":1,"event":"driver","driver_id":N,"location":[x,y],...}
//   -> {"v":1,"event":"end_frame","frame":F,"timestamp":S}
//   <- {"v":1,"event":"frame_response","frame":F,"timestamp":S,
//       "assignments":[...]}
//   <- {"v":1,"event":"frame_rejected","frame":F,"reason":"..."}
// The end_frame barrier closes a frame; the matcher replies to every
// barrier with exactly one line, in order. Clients resend the full
// pending-order and fleet state every frame (the protocol is stateless
// per frame). Malformed input is never fatal: undecodable lines are
// dropped with a stderr note, and a frame that carries more than
// --ingest-capacity orders plus drivers or fails
// DispatchSession::validate (duplicate order/driver ids, an order or a
// driver with seats < 1, a driver with seats_in_use outside [0, seats]
// or an inconsistent route state, a timestamp earlier than the last
// answered frame's) is not dispatched: it is answered with a
// frame_rejected line naming the reason (and counted as
// frames_rejected), so a closed-loop client never waits on it. An
// unknown --option is a usage error: o2o_serve exits 2.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/dispatch_config.h"
#include "geo/backend.h"
#include "service/api.h"
#include "service/codec.h"
#include "service/replay.h"
#include "service/service.h"
#include "service/session.h"
#include "sim/simulator.h"
#include "trace/fleet.h"
#include "trace/synthetic.h"
#include "util/thread_pool.h"

using namespace o2o;

namespace {

/// Upper bound of --threads: far above any useful lane count, low enough
/// that a typo cannot ask for thousands of threads.
constexpr std::size_t kMaxThreads = 256;

DispatchConfig tuned_config() {
  return DispatchConfig{}.with_passenger_threshold_km(10.0).with_taxi_threshold_score(1.0);
}

/// --flag=value style option; returns true and fills `value` on match.
bool parse_option(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

// ---------------------------------------------------------------------------
// Line-delimited I/O over raw file descriptors (works for pipes, FIFOs,
// stdio, and sockets alike).
// ---------------------------------------------------------------------------

class LineChannel {
 public:
  LineChannel(int read_fd, int write_fd) : read_fd_(read_fd), write_fd_(write_fd) {}

  /// Reads one '\n'-terminated line (terminator stripped); `line` stays
  /// valid until the next call. Returns false on EOF with no buffered data.
  bool read_line(std::string_view& line) {
    while (true) {
      const std::string_view data(buffer_.data(), end_);
      const std::size_t newline = data.find('\n', scan_from_);
      if (newline != std::string_view::npos) {
        line = data.substr(start_, newline - start_);
        start_ = scan_from_ = newline + 1;
        return true;
      }
      // Drop the consumed lines once per read, not once per line.
      std::memmove(buffer_.data(), buffer_.data() + start_, end_ - start_);
      end_ -= start_;
      start_ = 0;
      scan_from_ = end_;
      // The buffer keeps its size between reads, so read() lands in memory
      // that is already there; it grows only when one line fills it.
      if (end_ == buffer_.size()) buffer_.resize(std::max(kChunkBytes, 2 * buffer_.size()));
      const ssize_t got = ::read(read_fd_, buffer_.data() + end_, buffer_.size() - end_);
      if (got < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (got == 0) {
        if (end_ == 0) return false;
        line = std::string_view(buffer_.data(), end_);  // unterminated trailing line
        start_ = scan_from_ = end_;
        return true;
      }
      end_ += static_cast<std::size_t>(got);
    }
  }

  /// Takes the line by value so the '\n' is appended without a copy.
  bool write_line(std::string line) {
    line.push_back('\n');
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t wrote = ::write(write_fd_, line.data() + sent, line.size() - sent);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }

 private:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  int read_fd_;
  int write_fd_;
  std::string buffer_;
  std::size_t end_ = 0;        ///< end of the bytes read so far
  std::size_t start_ = 0;      ///< first byte of the next line
  std::size_t scan_from_ = 0;  ///< where the search for '\n' resumes
};

// ---------------------------------------------------------------------------
// Server: reader thread decodes ndjson events into the open frame while
// the matcher thread answers complete frames — frame t+1 streams in
// while frame t is still matching.
// ---------------------------------------------------------------------------

int run_server(LineChannel& channel, const std::string& kind,
               const DispatchConfig& config, const geo::DistanceOracle& oracle) {
  service::StreamingService svc(kind, config, oracle);

  // One event for the whole stream: each line decodes into it, and
  // submit(std::move(event)) hands back a served frame's driver, so
  // driver vectors cycle between the reader and the frames instead of
  // being reallocated.
  std::thread reader([&svc, &channel] {
    api::RideEvent event;
    service::CodecError error;
    std::string_view line;
    while (channel.read_line(line)) {
      if (line.empty()) continue;
      if (!service::decode_event_into(line, event, &error)) {
        std::fprintf(stderr, "o2o_serve: dropping bad event: %s\n",
                     error.message.c_str());
        continue;
      }
      svc.submit(std::move(event));
    }
    svc.close();
  });

  std::uint64_t frames = 0;
  while (const auto response = svc.next_answer()) {
    if (response->reject_reason.empty()) ++frames;
    if (!channel.write_line(service::encode_response(*response))) {
      std::fprintf(stderr, "o2o_serve: write failed, shutting down\n");
      break;
    }
  }
  reader.join();
  std::fprintf(stderr, "o2o_serve: served %llu frames\n",
               static_cast<unsigned long long>(frames));
  return 0;
}

int run_tcp(int port, const std::string& kind, const DispatchConfig& config,
            const geo::DistanceOracle& oracle) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("o2o_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::perror("o2o_serve: bind");
    ::close(listener);
    return 1;
  }
  if (::listen(listener, 1) < 0) {
    std::perror("o2o_serve: listen");
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "o2o_serve: listening on 127.0.0.1:%d\n", port);
  const int client = ::accept(listener, nullptr, nullptr);
  ::close(listener);
  if (client < 0) {
    std::perror("o2o_serve: accept");
    return 1;
  }
  LineChannel channel(client, client);
  const int rc = run_server(channel, kind, config, oracle);
  ::close(client);
  return rc;
}

// ---------------------------------------------------------------------------
// Replay: differential streamed-vs-batch run.
// ---------------------------------------------------------------------------

/// ServeFrameFn that pushes every frame through the wire codec AND the
/// service's frame handoff: encode each event line, decode it, submit
/// to the service, then collect + round-trip the response. This is the
/// exact event path a remote client exercises, in process.
service::ServeFrameFn streamed_codec_server(service::StreamingService& svc) {
  return [&svc, event = api::RideEvent{}](const api::FrameRequest& request) mutable {
    for (const std::string& line : service::encode_frame_events(request)) {
      service::CodecError error;
      if (!service::decode_event_into(line, event, &error)) {
        std::fprintf(stderr, "o2o_serve: codec error: %s\n", error.message.c_str());
        std::abort();
      }
      svc.submit(std::move(event));
    }
    const auto response = svc.next_response();
    if (!response) {
      std::fprintf(stderr, "o2o_serve: service closed mid-replay\n");
      std::abort();
    }
    const auto decoded =
        service::decode_response(service::encode_response(*response));
    if (!decoded) {
      std::fprintf(stderr, "o2o_serve: response failed codec round trip\n");
      std::abort();
    }
    return *decoded;
  };
}

/// ServeFrameFn that drives a remote ndjson server through `channel`.
service::ServeFrameFn remote_server(LineChannel& channel) {
  return [&channel](const api::FrameRequest& request) {
    for (std::string& line : service::encode_frame_events(request)) {
      if (!channel.write_line(std::move(line))) {
        std::fprintf(stderr, "o2o_serve: request write failed\n");
        std::abort();
      }
    }
    std::string_view line;
    if (!channel.read_line(line)) {
      std::fprintf(stderr, "o2o_serve: server hung up mid-frame\n");
      std::abort();
    }
    service::CodecError error;
    const auto response = service::decode_response(line, &error);
    if (!response) {
      std::fprintf(stderr, "o2o_serve: bad response: %s\n", error.message.c_str());
      std::abort();
    }
    return *response;
  };
}

/// Field-by-field report diff; every divergence is printed. Returns the
/// number of mismatched fields (0 == bit-identical).
int diff_reports(const sim::SimulationReport& batch,
                 const sim::SimulationReport& streamed) {
  int mismatches = 0;
  const auto check_u = [&](const char* what, std::size_t a, std::size_t b) {
    if (a == b) return;
    ++mismatches;
    std::fprintf(stderr, "  %s: batch=%zu streamed=%zu\n", what, a, b);
  };
  const auto check_d = [&](const char* what, double a, double b) {
    if (a == b) return;  // bitwise-equal doubles compare equal exactly
    ++mismatches;
    std::fprintf(stderr, "  %s: batch=%.17g streamed=%.17g\n", what, a, b);
  };
  check_u("served", batch.served, streamed.served);
  check_u("cancelled", batch.cancelled, streamed.cancelled);
  check_d("total_taxi_distance_km", batch.total_taxi_distance_km,
          streamed.total_taxi_distance_km);
  check_u("request_count", batch.requests.size(), streamed.requests.size());
  const std::size_t n = std::min(batch.requests.size(), streamed.requests.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = batch.requests[i];
    const auto& b = streamed.requests[i];
    if (a.id == b.id && a.dispatch_time == b.dispatch_time &&
        a.pickup_time == b.pickup_time && a.dropoff_time == b.dropoff_time &&
        a.dispatch_delay_minutes == b.dispatch_delay_minutes &&
        a.passenger_dissatisfaction_km == b.passenger_dissatisfaction_km &&
        a.shared == b.shared && a.cancelled == b.cancelled) {
      continue;
    }
    ++mismatches;
    std::fprintf(stderr,
                 "  request %lld: batch(dispatch=%.17g pickup=%.17g shared=%d "
                 "cancelled=%d) vs streamed(dispatch=%.17g pickup=%.17g shared=%d "
                 "cancelled=%d)\n",
                 static_cast<long long>(a.id), a.dispatch_time, a.pickup_time,
                 a.shared ? 1 : 0, a.cancelled ? 1 : 0, b.dispatch_time, b.pickup_time,
                 b.shared ? 1 : 0, b.cancelled ? 1 : 0);
  }
  return mismatches;
}

struct ReplayDay {
  trace::Trace city;
  std::vector<trace::Taxi> fleet;
};

ReplayDay make_day(int taxis, double rate_scale, std::uint64_t seed) {
  trace::CityModel model = trace::CityModel::boston();
  trace::GenerationOptions gen;
  gen.duration_seconds = 4.0 * 3600.0;
  gen.rate_scale = rate_scale;
  gen.seed = seed;
  trace::FleetOptions fleet_options;
  fleet_options.taxi_count = taxis;
  return ReplayDay{trace::generate(model, gen),
                   trace::make_fleet(model.region, fleet_options)};
}

int run_replay(const std::string& kind, const DispatchConfig& config,
               const geo::DistanceOracle& oracle, int taxis, double rate_scale,
               std::uint64_t seed, LineChannel* remote) {
  const ReplayDay day = make_day(taxis, rate_scale, seed);
  std::fprintf(stderr,
               "o2o_serve: replaying %zu requests / %d taxis through %s (%s)\n",
               day.city.size(), taxis, remote ? "remote server" : "in-process service",
               kind.c_str());

  sim::Simulator batch_sim(day.city, day.fleet, oracle, config.simulation());
  const auto dispatcher = make_dispatcher(kind, config);
  const sim::SimulationReport batch = batch_sim.run(*dispatcher);

  service::ReplayResult streamed;
  if (remote != nullptr) {
    streamed = service::replay_day(day.city, day.fleet, oracle, config,
                                   remote_server(*remote), kind);
  } else {
    service::StreamingService svc(kind, config, oracle);
    streamed = service::replay_day(day.city, day.fleet, oracle, config,
                                   streamed_codec_server(svc), kind);
  }

  const int mismatches = diff_reports(batch, streamed.report);
  std::fprintf(stderr,
               "o2o_serve: %llu frames served, %d mismatches -- %s\n",
               static_cast<unsigned long long>(streamed.frames_served), mismatches,
               mismatches == 0 ? "streamed run is bit-identical to batch" : "FAILED");
  return mismatches == 0 ? 0 : 1;
}

void print_config(const std::string& kind, const DispatchConfig& config) {
  std::printf("o2o_serve api v%d.%d, dispatcher %s\n", api::kApiVersionMajor,
              api::kApiVersionMinor, kind.c_str());
  for (const auto& [key, value] : config.describe()) {
    std::printf("  %s=%s\n", key.c_str(), value.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kStdio, kTcp, kReplay, kReplayConnect, kPrintConfig };
  Mode mode = Mode::kStdio;
  std::string kind = "nstd-p";
  int tcp_port = 0;
  std::string connect_paths;
  int taxis = 60;
  double rate_scale = 0.5;
  std::uint64_t seed = 4242;
  DispatchConfig config = tuned_config();
  geo::DistanceBackendSpec backend_spec;
  std::size_t threads = 0;  // 0: the shared pool's hardware default

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--stdio") == 0) {
      mode = Mode::kStdio;
    } else if (parse_option(arg, "--tcp", value)) {
      mode = Mode::kTcp;
      tcp_port = std::atoi(value.c_str());
    } else if (std::strcmp(arg, "--replay") == 0) {
      mode = Mode::kReplay;
    } else if (parse_option(arg, "--replay-connect", value)) {
      mode = Mode::kReplayConnect;
      connect_paths = value;
    } else if (std::strcmp(arg, "--print-config") == 0) {
      mode = Mode::kPrintConfig;
    } else if (parse_option(arg, "--dispatcher", value)) {
      kind = value;
    } else if (std::strcmp(arg, "--sharing") == 0) {
      kind = "std-p";
    } else if (parse_option(arg, "--pipeline-depth", value)) {
      config = config.with_pipeline_depth(static_cast<std::size_t>(std::atoll(value.c_str())));
    } else if (parse_option(arg, "--ingest-capacity", value)) {
      config = config.with_ingest_capacity(static_cast<std::size_t>(std::atoll(value.c_str())));
    } else if (parse_option(arg, "--threads", value)) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long lanes = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0 || lanes < 1 ||
          lanes > kMaxThreads) {
        std::fprintf(stderr, "o2o_serve: --threads wants an integer in [1, %llu], got '%s'\n",
                     static_cast<unsigned long long>(kMaxThreads), value.c_str());
        return 2;
      }
      threads = static_cast<std::size_t>(lanes);
    } else if (parse_option(arg, "--distance-backend", value)) {
      if (!geo::parse_distance_backend(value, &backend_spec)) {
        std::fprintf(stderr, "o2o_serve: unrecognized --distance-backend spec: %s\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "o2o_serve: unknown option: %s\n", arg);
      return 2;
    } else {
      switch (positional++) {
        case 0: taxis = std::atoi(arg); break;
        case 1: rate_scale = std::atof(arg); break;
        case 2: seed = std::strtoull(arg, nullptr, 10); break;
        default:
          std::fprintf(stderr, "unknown argument: %s\n", arg);
          return 2;
      }
    }
  }

  // Resolve the distance backend up front: --print-config then reports
  // the graph fingerprint the server would serve with.
  geo::DistanceBackend backend;
  try {
    backend = geo::make_distance_oracle(backend_spec);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "o2o_serve: cannot resolve --distance-backend: %s\n",
                 error.what());
    return 2;
  }
  config = config.with_distance_backend(backend);

  const auto errors = config.validate();
  if (!errors.empty()) {
    for (const auto& error : errors) {
      std::fprintf(stderr, "o2o_serve: bad config: %s\n", error.message.c_str());
    }
    return 2;
  }

  // Before anything dispatches: the shared pool is built on first use.
  if (threads != 0 && !ThreadPool::set_shared_worker_count(threads - 1)) {
    std::fprintf(stderr, "o2o_serve: the thread pool was already running\n");
    return 1;
  }

  switch (mode) {
    case Mode::kPrintConfig:
      print_config(kind, config);
      return 0;
    case Mode::kStdio: {
      LineChannel channel(STDIN_FILENO, STDOUT_FILENO);
      return run_server(channel, kind, config, *backend.oracle);
    }
    case Mode::kTcp:
      return run_tcp(tcp_port, kind, config, *backend.oracle);
    case Mode::kReplay:
      return run_replay(kind, config, *backend.oracle, taxis, rate_scale, seed,
                        nullptr);
    case Mode::kReplayConnect: {
      const std::size_t comma = connect_paths.find(',');
      if (comma == std::string::npos) {
        std::fprintf(stderr, "--replay-connect wants REQ,RESP paths\n");
        return 2;
      }
      const std::string req = connect_paths.substr(0, comma);
      const std::string resp = connect_paths.substr(comma + 1);
      // FIFO open order matters: the server opens REQ (its stdin) first,
      // so open REQ for writing first to unblock it, then RESP.
      const int wfd = ::open(req.c_str(), O_WRONLY);
      if (wfd < 0) {
        std::perror("o2o_serve: open REQ");
        return 1;
      }
      const int rfd = ::open(resp.c_str(), O_RDONLY);
      if (rfd < 0) {
        std::perror("o2o_serve: open RESP");
        ::close(wfd);
        return 1;
      }
      LineChannel channel(rfd, wfd);
      const int rc = run_replay(kind, config, *backend.oracle, taxis, rate_scale,
                                seed, &channel);
      ::close(wfd);
      ::close(rfd);
      return rc;
    }
  }
  return 0;
}
