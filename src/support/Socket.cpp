//===- support/Socket.cpp - POSIX socket helpers ---------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace layra;

void SocketFd::reset(int NewFd) {
  if (Fd >= 0)
    ::close(Fd);
  Fd = NewFd;
}

bool layra::setNonBlocking(int Fd, bool NonBlocking) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  int Want = NonBlocking ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  return Flags == Want || ::fcntl(Fd, F_SETFL, Want) == 0;
}

void layra::setTcpNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

unsigned layra::raiseFdLimit(unsigned Want) {
  rlimit Limit;
  if (::getrlimit(RLIMIT_NOFILE, &Limit) != 0)
    return Want;
  if (Limit.rlim_cur != RLIM_INFINITY && Limit.rlim_cur < Want) {
    rlim_t Target = Limit.rlim_max == RLIM_INFINITY
                        ? rlim_t(Want)
                        : std::min<rlim_t>(Want, Limit.rlim_max);
    if (Target > Limit.rlim_cur) {
      rlimit Raised = Limit;
      Raised.rlim_cur = Target;
      if (::setrlimit(RLIMIT_NOFILE, &Raised) == 0)
        Limit = Raised;
    }
  }
  return Limit.rlim_cur == RLIM_INFINITY
             ? Want
             : static_cast<unsigned>(Limit.rlim_cur);
}

namespace {

void setError(std::string *Error, const std::string &What) {
  if (Error)
    *Error = What + ": " + std::strerror(errno);
}

/// Fills \p Addr for \p Host:\p Port.  Numeric IPv4 only, plus the
/// "localhost" convenience spelling.
bool resolveIpv4(const std::string &Host, uint16_t Port, sockaddr_in &Addr,
                 std::string *Error) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  const std::string &Numeric = Host == "localhost" ? "127.0.0.1" : Host;
  if (inet_pton(AF_INET, Numeric.c_str(), &Addr.sin_addr) != 1) {
    if (Error)
      *Error = "invalid IPv4 address '" + Host + "'";
    return false;
  }
  return true;
}

bool fillUnixAddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Error) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "unix socket path empty or longer than " +
               std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

SocketFd layra::listenTcp(const std::string &Host, uint16_t Port,
                          std::string *Error) {
  sockaddr_in Addr;
  if (!resolveIpv4(Host, Port, Addr, Error))
    return SocketFd();
  SocketFd Fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!Fd.valid()) {
    setError(Error, "socket");
    return SocketFd();
  }
  int One = 1;
  ::setsockopt(Fd.fd(), SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    setError(Error, "bind " + Host + ":" + std::to_string(Port));
    return SocketFd();
  }
  if (::listen(Fd.fd(), SOMAXCONN) != 0) {
    setError(Error, "listen");
    return SocketFd();
  }
  return Fd;
}

SocketFd layra::listenUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr;
  if (!fillUnixAddr(Path, Addr, Error))
    return SocketFd();
  // A stale socket file from a crashed predecessor would make bind fail
  // with EADDRINUSE, so daemons conventionally replace it -- but only a
  // *dead socket*: a regular file at the path is a typo'd --unix that
  // must not be deleted, and a socket something still answers on belongs
  // to a live server that must not be hijacked.
  struct stat Sb;
  if (::lstat(Path.c_str(), &Sb) == 0) {
    if (!S_ISSOCK(Sb.st_mode)) {
      if (Error)
        *Error = "path " + Path + " exists and is not a socket; refusing "
                 "to replace it";
      return SocketFd();
    }
    SocketFd Probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (Probe.valid() &&
        ::connect(Probe.fd(), reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) == 0) {
      if (Error)
        *Error = "a server is already listening on " + Path;
      return SocketFd();
    }
    ::unlink(Path.c_str()); // Nobody answered: a stale leftover.
  }
  SocketFd Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!Fd.valid()) {
    setError(Error, "socket");
    return SocketFd();
  }
  if (::bind(Fd.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    setError(Error, "bind " + Path);
    return SocketFd();
  }
  if (::listen(Fd.fd(), SOMAXCONN) != 0) {
    setError(Error, "listen");
    return SocketFd();
  }
  return Fd;
}

SocketFd layra::connectTcp(const std::string &Host, uint16_t Port,
                           std::string *Error) {
  sockaddr_in Addr;
  if (!resolveIpv4(Host, Port, Addr, Error))
    return SocketFd();
  SocketFd Fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!Fd.valid()) {
    setError(Error, "socket");
    return SocketFd();
  }
  if (::connect(Fd.fd(), reinterpret_cast<sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    setError(Error, "connect " + Host + ":" + std::to_string(Port));
    return SocketFd();
  }
  setTcpNoDelay(Fd.fd());
  return Fd;
}

SocketFd layra::connectUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr;
  if (!fillUnixAddr(Path, Addr, Error))
    return SocketFd();
  SocketFd Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!Fd.valid()) {
    setError(Error, "socket");
    return SocketFd();
  }
  if (::connect(Fd.fd(), reinterpret_cast<sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    setError(Error, "connect " + Path);
    return SocketFd();
  }
  return Fd;
}

uint16_t layra::boundTcpPort(const SocketFd &Listener) {
  sockaddr_in Addr;
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Listener.fd(), reinterpret_cast<sockaddr *>(&Addr),
                    &Len) != 0)
    return 0;
  return ntohs(Addr.sin_port);
}

bool layra::sendAll(int Fd, const void *Data, size_t Size) {
  const char *Cursor = static_cast<const char *>(Data);
  while (Size > 0) {
    ssize_t Sent = ::send(Fd, Cursor, Size, MSG_NOSIGNAL);
    if (Sent < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (Sent == 0)
      return false;
    Cursor += Sent;
    Size -= static_cast<size_t>(Sent);
  }
  return true;
}

ssize_t layra::recvFull(int Fd, void *Data, size_t Size) {
  char *Cursor = static_cast<char *>(Data);
  size_t Total = 0;
  while (Total < Size) {
    ssize_t Got = ::recv(Fd, Cursor + Total, Size - Total, 0);
    if (Got < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (Got == 0)
      break;
    Total += static_cast<size_t>(Got);
  }
  return static_cast<ssize_t>(Total);
}
