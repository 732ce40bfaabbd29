// AF_UNIX transport for the compile service — the `tydid` daemon's server
// loop and the matching one-shot + retrying clients.
//
// The server owns a listening socket on a filesystem path and serves each
// accepted connection on its own thread: newline-delimited request lines in,
// serialized Response frames out (see src/service/service.hpp for the wire
// protocol). A connection may issue any number of requests; the server
// replies in order per connection while connections proceed fully in
// parallel. Connection threads only *admit* requests — compile work runs on
// the service's fixed worker pool, so accepted connections bound thread
// count at the transport layer while the queue bounds compile concurrency.
// Replies go out with one gathering sendmsg, except a result-cache hit that
// carries its reply frame: that one is sent from its memfd with sendfile.
// Connection threads block SIGPIPE, so a reply to a dead peer fails with
// EPIPE (counted in tydi.service.reply_disconnects) and closes the
// connection instead of killing the daemon.
//
// Overload behaviour at this layer:
//   - `max_connections` caps concurrently-served connections; past it the
//     accept loop answers with a one-frame kUnavailable shed (retry-after
//     hint included) and closes, sharing the service's shed taxonomy.
//   - While a request is in flight, the connection thread probes the peer
//     (MSG_PEEK); a disconnected client trips the request's cancellation
//     hook so queued work is skipped and executing compiles abort at their
//     next poll instead of running to completion for nobody.
//
// Shutdown: a SHUTDOWN request or (when `handle_signals`) SIGINT/SIGTERM
// routes through one drain path — stop accepting, stop reading new request
// lines from open connections, let queued + in-flight work finish against
// the service's drain deadline (then cancel/shed), join every thread, and
// unlink the socket file. Ctrl-C never leaves a stale socket behind.
#pragma once

#include <string>

#include "src/service/service.hpp"
#include "src/support/retry.hpp"
#include "src/support/status.hpp"

namespace tydi::service {

struct ServerConfig {
  /// Filesystem path of the AF_UNIX listening socket. An existing file at
  /// the path is unlinked first (stale socket from a crashed daemon).
  std::string socket_path;
  int backlog = 16;
  /// Cap on concurrently-served connections (0 = unlimited). Connections
  /// past the cap receive a single kUnavailable frame and are closed.
  std::size_t max_connections = 0;
  /// Install SIGINT/SIGTERM handlers for the duration of `serve()` that
  /// route through the same drain path as SHUTDOWN. Process-wide — leave
  /// false when embedding multiple servers in one process (tests).
  bool handle_signals = false;
};

/// Runs the accept loop until a SHUTDOWN request, a handled signal, or a
/// fatal socket error; drains the service before returning. Blocking;
/// returns kOk after a clean (request- or signal-driven) shutdown.
[[nodiscard]] support::Status serve(CompileService& service,
                                    const ServerConfig& config);

/// One-shot client: connects to `socket_path`, sends `line` (newline
/// appended), reads back one response frame into `out`. Returns a non-ok
/// Status only for transport failures — a compile failure or shed arrives
/// as a successful round-trip whose `out.status` is the remote
/// classification (and `out.retry_after_ms` the shed backoff hint).
[[nodiscard]] support::Status request(const std::string& socket_path,
                                      const std::string& line, Response& out);

/// Retrying client: `request` wrapped in a support::Retry loop. Retries
/// transport failures and kUnavailable sheds, sleeping the jittered backoff
/// (raised to the shed frame's retry-after-ms hint) between attempts, and
/// prefixes each retry with an `ATTEMPT <n>` envelope token so the daemon
/// can count retried requests. Any other response — success or a
/// non-retryable failure class — returns immediately. When the attempt
/// budget runs out the last outcome is returned: the transport Status if
/// the final attempt never got a frame, otherwise kOk with the shed
/// response in `out`. `attempts_out` (optional) receives the number of
/// attempts made.
[[nodiscard]] support::Status request_with_retry(
    const std::string& socket_path, const std::string& line,
    const support::RetryPolicy& policy, Response& out,
    int* attempts_out = nullptr);

}  // namespace tydi::service
