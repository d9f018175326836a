#include "core/transport.h"

#include "util/clock.h"

namespace tb::core {

Transport::~Transport() = default;
ServerPort::~ServerPort() = default;

size_t
ServerPort::recvReqBatch(std::vector<Request>& out, size_t max)
{
    out.clear();
    if (max == 0)
        return 0;
    Request req;
    if (!recvReq(req))
        return 0;
    out.push_back(std::move(req));
    return 1;
}

void
ServerPort::bindWorker(unsigned)
{
}

void
ServerPort::sendRespBatch(std::vector<Response>& resps)
{
    for (Response& resp : resps)
        sendResp(std::move(resp));
    resps.clear();
}

InProcessTransport::InProcessTransport(const PortOptions& opts)
    : requests_(opts), port_(*this)
{
}

void
InProcessTransport::sendRequest(Request&& req)
{
    requests_.push(std::move(req));
}

bool
InProcessTransport::recvResponse(Response& out)
{
    while (rx_head_ >= rx_.size()) {
        rx_head_ = 0;
        bool closed = false;
        if (responses_.tryPopAll(rx_, closed) > 0)
            break;
        if (closed)
            return false;
        util::sleepForNs(kCollectPeriodNs);
    }
    out = std::move(rx_[rx_head_]);
    rx_head_++;
    return true;
}

void
InProcessTransport::finishSend()
{
    requests_.close();
}

bool
InProcessTransport::Port::recvReq(Request& out)
{
    return owner_.requests_.pop(out);
}

size_t
InProcessTransport::Port::recvReqBatch(std::vector<Request>& out,
                                       size_t max)
{
    return owner_.requests_.popBatch(out, max);
}

void
InProcessTransport::Port::bindWorker(unsigned worker)
{
    owner_.requests_.bind(worker);
}

void
InProcessTransport::Port::sendResp(Response&& resp)
{
    owner_.responses_.push(std::move(resp));
}

void
InProcessTransport::Port::sendRespBatch(std::vector<Response>& resps)
{
    owner_.responses_.pushBatch(resps);
}

void
InProcessTransport::Port::closeResponses()
{
    owner_.responses_.close();
}

}  // namespace tb::core
