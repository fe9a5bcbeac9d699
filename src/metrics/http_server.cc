#include "metrics/http_server.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "metrics/exposition.h"

#if defined(__unix__) || defined(__APPLE__)
#define BW_HAVE_POSIX_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace bw {
namespace metrics {

namespace {

std::string
httpResponse(int code, const char *reason, const std::string &type,
             const std::string &body)
{
    std::ostringstream out;
    out << "HTTP/1.1 " << code << " " << reason << "\r\n"
        << "Content-Type: " << type << "\r\n"
        << "Content-Length: " << body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
        << body;
    return out.str();
}

#if BW_HAVE_POSIX_SOCKETS

/**
 * Write the whole buffer, looping over short writes and retrying
 * EINTR. A /metrics.json payload easily exceeds one socket buffer, so
 * a single send() would silently truncate the response under load.
 */
bool
sendAll(int fd, const std::string &data)
{
#ifdef MSG_NOSIGNAL
    const int flags = MSG_NOSIGNAL; // EPIPE instead of SIGPIPE
#else
    const int flags = 0;
#endif
    size_t off = 0;
    while (off < data.size()) {
        ssize_t w = ::send(fd, data.data() + off, data.size() - off,
                           flags);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false; // peer gone; nothing useful to do
        off += static_cast<size_t>(w);
    }
    return true;
}

#endif // BW_HAVE_POSIX_SOCKETS

} // namespace

MetricsHttpServer::MetricsHttpServer(const Registry &registry)
    : registry_(registry)
{
}

MetricsHttpServer::~MetricsHttpServer()
{
    stop();
}

void
MetricsHttpServer::handleJson(std::string path,
                              std::function<std::string()> body)
{
    handleText(std::move(path), "application/json", std::move(body));
}

void
MetricsHttpServer::handleText(std::string path, std::string content_type,
                              std::function<std::string()> body)
{
    for (Handler &h : handlers_) {
        if (h.path == path) {
            h.contentType = std::move(content_type);
            h.body = std::move(body);
            return;
        }
    }
    handlers_.push_back(
        Handler{std::move(path), std::move(content_type), std::move(body)});
}

void
MetricsHttpServer::handleStream(
    std::string path, std::function<void(const StreamSink &)> handler)
{
    for (auto &h : streamHandlers_) {
        if (h.first == path) {
            h.second = std::move(handler);
            return;
        }
    }
    streamHandlers_.emplace_back(std::move(path), std::move(handler));
}

void
MetricsHttpServer::setReadiness(std::function<bool()> ready)
{
    ready_ = std::move(ready);
}

std::string
MetricsHttpServer::respond(const std::string &request_line) const
{
    std::istringstream in(request_line);
    std::string method, path;
    in >> method >> path;
    if (method != "GET") {
        return httpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is supported\n");
    }
    // Strip any query string before routing.
    size_t q = path.find('?');
    if (q != std::string::npos)
        path.resize(q);
    if (path == "/metrics") {
        return httpResponse(
            200, "OK", "text/plain; version=0.0.4; charset=utf-8",
            prometheusText(registry_));
    }
    if (path == "/metrics.json") {
        return httpResponse(200, "OK", "application/json",
                            metricsJson(registry_).dump(2) + "\n");
    }
    if (path == "/healthz" || path == "/") {
        // Liveness vs readiness: the listener answering at all is
        // liveness; a draining engine flips the probe so the front
        // door stops routing here while in-flight work finishes.
        if (ready_ && !ready_()) {
            return httpResponse(503, "Service Unavailable",
                                "application/json",
                                "{\"draining\": true}\n");
        }
        return httpResponse(200, "OK", "text/plain", "ok\n");
    }
    for (const Handler &h : handlers_) {
        if (h.path == path)
            return httpResponse(200, "OK", h.contentType, h.body());
    }
    return httpResponse(404, "Not Found", "text/plain",
                        "try /metrics, /metrics.json or /healthz\n");
}

bool
MetricsHttpServer::respondStream(const std::string &request_line,
                                 const StreamSink &sink) const
{
    std::istringstream in(request_line);
    std::string method, path;
    in >> method >> path;
    if (method != "GET")
        return false;
    size_t q = path.find('?');
    if (q != std::string::npos)
        path.resize(q);
    for (const auto &h : streamHandlers_) {
        if (h.first != path)
            continue;
        // No Content-Length: the closed connection delimits the body,
        // so the handler can produce chunks it never holds at once.
        if (sink("HTTP/1.1 200 OK\r\n"
                 "Content-Type: application/x-ndjson\r\n"
                 "Connection: close\r\n\r\n"))
            h.second(sink);
        return true;
    }
    return false;
}

#if BW_HAVE_POSIX_SOCKETS

Status
MetricsHttpServer::start(uint16_t port)
{
    if (running_.load())
        return Status::failedPrecondition("server already running");

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::unavailable("socket() failed");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        ::close(fd);
        return Status::unavailable(bw::detail::format(
            "bind to port %u failed: %s", port, std::strerror(errno)));
    }
    if (::listen(fd, 16) < 0) {
        ::close(fd);
        return Status::unavailable("listen() failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    listenFd_ = fd;
    stopping_.store(false);
    running_.store(true);
    thread_ = std::thread(&MetricsHttpServer::acceptLoop, this);
    return Status();
}

void
MetricsHttpServer::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 200 /* ms */);
        if (rc <= 0 || !(pfd.revents & POLLIN))
            continue;
        int conn = ::accept(listenFd_, nullptr, nullptr);
        if (conn < 0)
            continue;
        // Read up to the end of the request line; the rest of the
        // request (headers) is irrelevant to routing.
        char buf[2048];
        ssize_t n;
        do {
            n = ::recv(conn, buf, sizeof(buf) - 1, 0);
        } while (n < 0 && errno == EINTR);
        if (n > 0) {
            buf[n] = '\0';
            std::string line(buf);
            size_t eol = line.find("\r\n");
            if (eol != std::string::npos)
                line.resize(eol);
            StreamSink socket_sink = [conn](const std::string &chunk) {
                return sendAll(conn, chunk);
            };
            if (!respondStream(line, socket_sink))
                sendAll(conn, respond(line));
        }
        ::close(conn);
    }
}

void
MetricsHttpServer::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    thread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    running_.store(false);
}

#else // !BW_HAVE_POSIX_SOCKETS

Status
MetricsHttpServer::start(uint16_t port)
{
    (void)port;
    return Status::unavailable(
        "metrics HTTP server requires POSIX sockets");
}

void
MetricsHttpServer::acceptLoop()
{
}

void
MetricsHttpServer::stop()
{
}

#endif // BW_HAVE_POSIX_SOCKETS

} // namespace metrics
} // namespace bw
