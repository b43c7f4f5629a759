//===- serve/Wire.cpp - Length-prefixed Unix-socket framing ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "serve/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define PSEQ_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0 // no per-call flag (macOS): a dead peer raises SIGPIPE
#endif
#endif

using namespace pseq;
using namespace pseq::serve;

bool pseq::serve::wireSupported() {
#ifdef PSEQ_HAVE_UNIX_SOCKETS
  return true;
#else
  return false;
#endif
}

#ifdef PSEQ_HAVE_UNIX_SOCKETS

namespace {

void setErr(std::string *Err, const std::string &Msg, bool WithErrno = true) {
  if (!Err)
    return;
  *Err = Msg;
  if (WithErrno)
    *Err += std::string(": ") + std::strerror(errno);
}

/// Full write with EINTR/short-write handling.
bool writeAll(int Fd, const char *Data, size_t Len, std::string *Err) {
  while (Len) {
    // MSG_NOSIGNAL: a peer that hung up fails the write with EPIPE
    // instead of killing the process with SIGPIPE.
    ssize_t N = send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      setErr(Err, "socket write failed");
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Full read with EINTR handling. \returns 1 on success, 0 on clean EOF
/// at a frame boundary (Got == 0), -1 on error or mid-frame EOF.
int readAll(int Fd, char *Data, size_t Len, std::string *Err) {
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = read(Fd, Data + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      setErr(Err, "socket read failed");
      return -1;
    }
    if (N == 0) {
      if (Got == 0)
        return 0; // orderly close between frames
      setErr(Err, "peer closed mid-frame", /*WithErrno=*/false);
      return -1;
    }
    Got += static_cast<size_t>(N);
  }
  return 1;
}

} // namespace

int pseq::serve::listenUnix(const std::string &Path, std::string *Err) {
  struct sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    setErr(Err, "socket path too long for AF_UNIX: " + Path, false);
    return -1;
  }
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setErr(Err, "cannot create socket");
    return -1;
  }
  unlink(Path.c_str()); // stale socket from a previous (crashed) server
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    setErr(Err, "cannot bind " + Path);
    close(Fd);
    return -1;
  }
  if (listen(Fd, 64) != 0) {
    setErr(Err, "cannot listen on " + Path);
    close(Fd);
    return -1;
  }
  return Fd;
}

int pseq::serve::connectUnix(const std::string &Path, std::string *Err) {
  struct sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    setErr(Err, "socket path too long for AF_UNIX: " + Path, false);
    return -1;
  }
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setErr(Err, "cannot create socket");
    return -1;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
              sizeof(Addr)) != 0) {
    setErr(Err, "cannot connect to " + Path);
    close(Fd);
    return -1;
  }
  return Fd;
}

bool pseq::serve::sendFrame(int Fd, std::string_view Payload,
                            std::string *Err) {
  if (Payload.size() > MaxFrameBytes) {
    setErr(Err, "frame payload exceeds cap", /*WithErrno=*/false);
    return false;
  }
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  char Hdr[4] = {static_cast<char>((Len >> 24) & 0xff),
                 static_cast<char>((Len >> 16) & 0xff),
                 static_cast<char>((Len >> 8) & 0xff),
                 static_cast<char>(Len & 0xff)};
  return writeAll(Fd, Hdr, sizeof(Hdr), Err) &&
         writeAll(Fd, Payload.data(), Payload.size(), Err);
}

bool pseq::serve::recvFrame(int Fd, std::string &Payload, std::string *Err) {
  if (Err)
    Err->clear();
  char Hdr[4];
  int R = readAll(Fd, Hdr, sizeof(Hdr), Err);
  if (R <= 0)
    return false; // EOF (Err empty) or error (Err set)
  uint32_t Len = (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(Hdr[3]));
  if (Len > MaxFrameBytes) {
    setErr(Err, "frame length " + std::to_string(Len) + " exceeds cap",
           /*WithErrno=*/false);
    return false;
  }
  Payload.resize(Len);
  if (Len == 0)
    return true;
  if (readAll(Fd, Payload.data(), Len, Err) != 1) {
    if (Err && Err->empty())
      setErr(Err, "peer closed mid-frame", /*WithErrno=*/false);
    return false;
  }
  return true;
}

void pseq::serve::closeFd(int Fd) {
  if (Fd >= 0)
    close(Fd);
}

#else // !PSEQ_HAVE_UNIX_SOCKETS

namespace {
void unsupported(std::string *Err) {
  if (Err)
    *Err = "unix sockets unsupported on this host";
}
} // namespace

int pseq::serve::listenUnix(const std::string &, std::string *Err) {
  unsupported(Err);
  return -1;
}
int pseq::serve::connectUnix(const std::string &, std::string *Err) {
  unsupported(Err);
  return -1;
}
bool pseq::serve::sendFrame(int, std::string_view, std::string *Err) {
  unsupported(Err);
  return false;
}
bool pseq::serve::recvFrame(int, std::string &, std::string *Err) {
  unsupported(Err);
  return false;
}
void pseq::serve::closeFd(int) {}

#endif
