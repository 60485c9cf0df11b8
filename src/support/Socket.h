//===- support/Socket.h - POSIX socket helpers ------------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin RAII wrappers over the POSIX socket API for the allocation service
/// (service/Server.h, service/Client.h): TCP and Unix-domain listeners and
/// connectors and full-buffer send/recv loops.  Loopback-oriented by
/// design -- TCP hosts are numeric addresses (or "localhost"), name
/// resolution is out of scope.
///
/// Error reporting follows the library convention of no exceptions: every
/// constructor-like helper returns an invalid SocketFd and fills *Error.
/// SIGPIPE is never raised from here (MSG_NOSIGNAL); a closed peer shows up
/// as a short write instead.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_SUPPORT_SOCKET_H
#define LAYRA_SUPPORT_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>

namespace layra {

/// Owning file-descriptor handle.  Move-only; closes on destruction.
class SocketFd {
public:
  SocketFd() = default;
  explicit SocketFd(int Fd) : Fd(Fd) {}
  ~SocketFd() { reset(); }

  SocketFd(const SocketFd &) = delete;
  SocketFd &operator=(const SocketFd &) = delete;
  SocketFd(SocketFd &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  SocketFd &operator=(SocketFd &&Other) noexcept {
    if (this != &Other) {
      reset(Other.Fd);
      Other.Fd = -1;
    }
    return *this;
  }

  int fd() const { return Fd; }
  bool valid() const { return Fd >= 0; }

  /// Closes the held descriptor (if any) and adopts \p NewFd.
  void reset(int NewFd = -1);
  /// Releases ownership without closing.
  int release() {
    int Out = Fd;
    Fd = -1;
    return Out;
  }

private:
  int Fd = -1;
};

/// Creates a TCP listener bound to \p Host:\p Port (SO_REUSEADDR set, port
/// 0 = ephemeral; boundTcpPort() reads the choice back).  \p Host must be a
/// numeric IPv4 address or "localhost".
SocketFd listenTcp(const std::string &Host, uint16_t Port,
                   std::string *Error);

/// Creates a Unix-domain listener at \p Path.  A *stale* socket file left
/// by a crashed predecessor (nothing accepts connections on it) is
/// replaced; a live server's socket or a non-socket file at the path is an
/// error, never deleted.  The caller unlinks the path on shutdown.
SocketFd listenUnix(const std::string &Path, std::string *Error);

/// Connects to a TCP server at \p Host:\p Port.
SocketFd connectTcp(const std::string &Host, uint16_t Port,
                    std::string *Error);

/// Connects to a Unix-domain server socket at \p Path.
SocketFd connectUnix(const std::string &Path, std::string *Error);

/// The port a TCP listener actually bound (resolves port 0); 0 on error.
uint16_t boundTcpPort(const SocketFd &Listener);

/// Switches \p Fd's O_NONBLOCK flag.  The event-loop server and the
/// multiplexed load generator run every connection non-blocking; blocking
/// callers (the simple Client) never need this.  False when fcntl failed.
bool setNonBlocking(int Fd, bool NonBlocking = true);

/// Disables Nagle on a TCP socket.  Request/response framing sends small
/// header+payload pairs, so coalescing only adds latency (~40 ms worst
/// case against delayed ACKs).  Harmless on non-TCP descriptors (the
/// setsockopt simply fails); always returns void for that reason --
/// accept/connect paths call it unconditionally.
void setTcpNoDelay(int Fd);

/// Raises RLIMIT_NOFILE's soft limit toward \p Want descriptors (capped at
/// the hard limit).  Returns the resulting soft limit.  Lets
/// `layra-loadgen --clients=2000` and a many-connection server run under
/// the common 1024-descriptor default without sudo.
unsigned raiseFdLimit(unsigned Want);

/// Writes all \p Size bytes to \p Fd, looping over short writes.  False on
/// any error (including a closed peer).
bool sendAll(int Fd, const void *Data, size_t Size);

/// Reads exactly \p Size bytes unless the stream ends first.  Returns the
/// number of bytes actually read (< Size when the peer closed cleanly, 0
/// for an immediately closed stream), or -1 when recv() failed (errno
/// set) -- a connection reset is an I/O error, not an EOF.
ssize_t recvFull(int Fd, void *Data, size_t Size);

} // namespace layra

#endif // LAYRA_SUPPORT_SOCKET_H
