#include "net/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace tb::net {

namespace {

constexpr size_t kReqHeaderBytes = kRequestHeaderBytes;
constexpr size_t kRespHeaderBytes = kResponseFrameBytes;

static_assert(kReqHeaderBytes == 4 + 4 + 8 + 8,
              "request header layout changed");
static_assert(kRespHeaderBytes == 4 + 4 + 8 + 8 + 8 + 8 + 8,
              "response frame layout changed");

void
put32(uint8_t* p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
put64(uint8_t* p, uint64_t v)
{
    put32(p, static_cast<uint32_t>(v));
    put32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t
get32(const uint8_t* p)
{
    return static_cast<uint32_t>(p[0]) |
        static_cast<uint32_t>(p[1]) << 8 |
        static_cast<uint32_t>(p[2]) << 16 |
        static_cast<uint32_t>(p[3]) << 24;
}

uint64_t
get64(const uint8_t* p)
{
    return static_cast<uint64_t>(get32(p)) |
        static_cast<uint64_t>(get32(p + 4)) << 32;
}

/**
 * Reads exactly @p len bytes, distinguishing clean EOF (no bytes at
 * all — a peer that closed at a frame boundary) from a mid-read
 * truncation. The one short-read loop everything else wraps.
 */
WireResult
readExact(ByteStream& s, uint8_t* buf, size_t len)
{
    size_t got = 0;
    while (got < len) {
        const ssize_t n = s.readSome(buf + got, len - got);
        if (n < 0)
            return WireResult::kBadFrame;  // error is never a clean EOF
        if (n == 0)
            return got == 0 ? WireResult::kEof : WireResult::kBadFrame;
        got += static_cast<size_t>(n);
    }
    return WireResult::kOk;
}

/** Decodes a whole response frame; false on a bad magic or a nonzero
 * reserved word. The one response decoder both framings share. */
bool
decodeResponse(const uint8_t* p, core::Response& out)
{
    if (get32(p) != kResponseMagic || get32(p + 4) != 0)
        return false;
    out.id = get64(p + 8);
    out.checksum = get64(p + 16);
    out.ctx = 0;
    out.timing.genNs = static_cast<int64_t>(get64(p + 24));
    out.timing.startNs = static_cast<int64_t>(get64(p + 32));
    out.timing.endNs = static_cast<int64_t>(get64(p + 40));
    return true;
}

}  // namespace

ByteStream::~ByteStream() = default;

bool
readFull(ByteStream& s, void* buf, size_t len)
{
    return readExact(s, static_cast<uint8_t*>(buf), len) ==
        WireResult::kOk;
}

bool
writeFull(ByteStream& s, const void* buf, size_t len)
{
    const uint8_t* p = static_cast<const uint8_t*>(buf);
    size_t sent = 0;
    while (sent < len) {
        const ssize_t n = s.writeSome(p + sent, len - sent);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
sendRequestFrame(ByteStream& s, const core::Request& req)
{
    const std::string_view payload = req.payload.view();
    if (payload.size() > kMaxPayloadBytes)
        return false;
    // Header and payload leave in one write: two writes cost the
    // sender a second syscall and, under TCP_NODELAY, the receiver a
    // second segment and wakeup per request. The per-thread buffer
    // only grows, so the steady state allocates nothing.
    static thread_local std::vector<uint8_t> t_frame;
    const size_t total = kReqHeaderBytes + payload.size();
    if (t_frame.size() < total)
        t_frame.resize(total);
    uint8_t* frame = t_frame.data();
    put32(frame, kRequestMagic);
    put32(frame + 4, static_cast<uint32_t>(payload.size()));
    put64(frame + 8, req.id);
    put64(frame + 16, static_cast<uint64_t>(req.genNs));
    if (!payload.empty())
        std::memcpy(frame + kReqHeaderBytes, payload.data(),
                    payload.size());
    return writeFull(s, frame, total);
}

WireResult
recvRequestFrame(ByteStream& s, core::Request& out)
{
    uint8_t hdr[kReqHeaderBytes];
    const WireResult hr = readExact(s, hdr, sizeof(hdr));
    if (hr != WireResult::kOk)
        return hr;
    if (get32(hdr) != kRequestMagic)
        return WireResult::kBadFrame;
    const uint32_t payload_len = get32(hdr + 4);
    if (payload_len > kMaxPayloadBytes)
        return WireResult::kBadFrame;
    out.id = get64(hdr + 8);
    out.genNs = static_cast<int64_t>(get64(hdr + 16));
    out.ctx = 0;  // routing context is per-hop, never wire-carried
    // Owning payload: this is the blocking (threads-backend) path; the
    // reactor's allocation-free path decodes via the frame view.
    std::string payload(payload_len, '\0');
    if (payload_len > 0 && !readFull(s, &payload[0], payload_len))
        return WireResult::kBadFrame;
    out.payload = std::move(payload);
    return WireResult::kOk;
}

void
encodeResponseFrame(uint8_t* out, const core::Response& resp)
{
    put32(out, kResponseMagic);
    put32(out + 4, 0);
    put64(out + 8, resp.id);
    put64(out + 16, resp.checksum);
    put64(out + 24, static_cast<uint64_t>(resp.timing.genNs));
    put64(out + 32, static_cast<uint64_t>(resp.timing.startNs));
    put64(out + 40, static_cast<uint64_t>(resp.timing.endNs));
}

bool
sendResponseFrame(ByteStream& s, const core::Response& resp)
{
    uint8_t hdr[kRespHeaderBytes];
    encodeResponseFrame(hdr, resp);
    return writeFull(s, hdr, sizeof(hdr));
}

WireResult
recvResponseFrame(ByteStream& s, core::Response& out)
{
    uint8_t hdr[kRespHeaderBytes];
    const WireResult hr = readExact(s, hdr, sizeof(hdr));
    if (hr != WireResult::kOk)
        return hr;
    return decodeResponse(hdr, out) ? WireResult::kOk
                                    : WireResult::kBadFrame;
}

DecodeResult
tryDecodeRequestFrameView(const uint8_t* data, size_t len,
                          RequestFrameView& out, size_t& consumed)
{
    // Validate as early as the bytes allow: a bad magic or oversized
    // length must poison the connection before the peer's claimed
    // payload is buffered, not after.
    if (len >= 4 && get32(data) != kRequestMagic)
        return DecodeResult::kBadFrame;
    if (len >= 8 && get32(data + 4) > kMaxPayloadBytes)
        return DecodeResult::kBadFrame;
    if (len < kRequestHeaderBytes)
        return DecodeResult::kNeedMore;
    const uint32_t payload_len = get32(data + 4);
    const size_t total = kRequestHeaderBytes + payload_len;
    if (len < total)
        return DecodeResult::kNeedMore;
    out.id = get64(data + 8);
    out.genNs = static_cast<int64_t>(get64(data + 16));
    out.payload = data + kRequestHeaderBytes;
    out.payloadLen = payload_len;
    consumed = total;
    return DecodeResult::kFrame;
}

DecodeResult
tryDecodeRequestFrame(const uint8_t* data, size_t len,
                      core::Request& out, size_t& consumed)
{
    RequestFrameView view;
    const DecodeResult dr =
        tryDecodeRequestFrameView(data, len, view, consumed);
    if (dr != DecodeResult::kFrame)
        return dr;
    out.id = view.id;
    out.genNs = view.genNs;
    out.ctx = 0;  // routing context is per-hop, never wire-carried
    out.payload = std::string(
        reinterpret_cast<const char*>(view.payload), view.payloadLen);
    return DecodeResult::kFrame;
}

DecodeResult
tryDecodeResponseFrame(const uint8_t* data, size_t len,
                       core::Response& out, size_t& consumed)
{
    if (len >= 4 && get32(data) != kResponseMagic)
        return DecodeResult::kBadFrame;
    if (len < kResponseFrameBytes)
        return DecodeResult::kNeedMore;
    if (!decodeResponse(data, out))
        return DecodeResult::kBadFrame;
    consumed = kResponseFrameBytes;
    return DecodeResult::kFrame;
}

ssize_t
FdStream::readSome(void* buf, size_t len)
{
    for (;;) {
        const ssize_t n = ::read(fd_, buf, len);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

ssize_t
FdStream::writeSome(const void* buf, size_t len)
{
    for (;;) {
        // MSG_NOSIGNAL: a peer-closed connection must surface as an
        // error return the transports can log, not as a SIGPIPE that
        // kills the whole benchmark process.
        const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

}  // namespace tb::net
