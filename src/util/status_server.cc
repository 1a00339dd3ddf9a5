#include "util/status_server.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/log.h"
#include "util/strutil.h"

namespace sqlpp {

uint64_t
HttpRequest::queryU64(const std::string &key, uint64_t fallback) const
{
    auto it = query.find(key);
    if (it == query.end() || it->second.empty())
        return fallback;
    errno = 0;
    char *end = nullptr;
    unsigned long long value =
        std::strtoull(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0')
        return fallback;
    return static_cast<uint64_t>(value);
}

StatusServer::StatusServer() = default;

StatusServer::~StatusServer()
{
    stop();
}

void
StatusServer::handle(std::string path, StatusHandler handler)
{
    handlers_.emplace_back(std::move(path), std::move(handler));
}

namespace {

const char *
httpStatusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 500: return "Internal Server Error";
    }
    return "OK";
}

/** Parse "GET /path?a=1&b=2 HTTP/1.x"; false on anything else. */
bool
parseRequestLine(const std::string &line, HttpRequest &request,
                 bool &not_get)
{
    not_get = false;
    size_t method_end = line.find(' ');
    if (method_end == std::string::npos)
        return false;
    if (line.substr(0, method_end) != "GET") {
        not_get = true;
        return false;
    }
    size_t target_end = line.find(' ', method_end + 1);
    if (target_end == std::string::npos)
        return false;
    std::string target =
        line.substr(method_end + 1, target_end - method_end - 1);
    if (target.empty() || target[0] != '/')
        return false;
    size_t question = target.find('?');
    request.path = target.substr(0, question);
    if (question != std::string::npos) {
        for (const std::string &pair :
             split(target.substr(question + 1), '&')) {
            if (pair.empty())
                continue;
            size_t eq = pair.find('=');
            if (eq == std::string::npos)
                request.query[pair] = "";
            else
                request.query[pair.substr(0, eq)] =
                    pair.substr(eq + 1);
        }
    }
    return true;
}

void
sendAll(int fd, const std::string &data)
{
    size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return;
        sent += static_cast<size_t>(n);
    }
}

} // namespace

Status
StatusServer::start(uint16_t port)
{
    if (running_.load())
        return Status::runtimeError("status server already running");
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Status::runtimeError(format("socket() failed: %s",
                                           std::strerror(errno)));
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        Status status = Status::runtimeError(
            format("bind(127.0.0.1:%u) failed: %s", port,
                   std::strerror(errno)));
        ::close(fd);
        return status;
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0) {
        Status status = Status::runtimeError(
            format("getsockname() failed: %s", std::strerror(errno)));
        ::close(fd);
        return status;
    }
    if (::listen(fd, 16) != 0) {
        Status status = Status::runtimeError(
            format("listen() failed: %s", std::strerror(errno)));
        ::close(fd);
        return status;
    }
    listen_fd_ = fd;
    port_.store(ntohs(addr.sin_port));
    stopping_.store(false);
    running_.store(true);
    thread_ = std::thread([this] { serveLoop(); });
    return Status::ok();
}

void
StatusServer::stop()
{
    if (!running_.exchange(false)) {
        if (thread_.joinable())
            thread_.join();
        return;
    }
    stopping_.store(true);
    // shutdown() wakes the blocking accept(); the fd itself is closed
    // only after the thread joined, so it can never be reused under a
    // racing accept call.
    if (listen_fd_ >= 0)
        (void)::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable())
        thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void
StatusServer::serveLoop()
{
    for (;;) {
        int client = ::accept(listen_fd_, nullptr, nullptr);
        if (stopping_.load()) {
            if (client >= 0)
                ::close(client);
            return;
        }
        if (client < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return;
        }
        serveOne(client);
        ::close(client);
    }
}

void
StatusServer::serveOne(int client_fd)
{
    // Bound both the read size and the wait: a stalled client must
    // never wedge the introspection loop.
    timeval timeout;
    timeout.tv_sec = 2;
    timeout.tv_usec = 0;
    (void)::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    std::string raw;
    char buffer[1024];
    while (raw.size() < 8192 &&
           raw.find("\r\n\r\n") == std::string::npos &&
           raw.find("\n\n") == std::string::npos) {
        ssize_t n = ::recv(client_fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        raw.append(buffer, static_cast<size_t>(n));
    }
    size_t line_end = raw.find_first_of("\r\n");
    std::string request_line =
        line_end == std::string::npos ? raw : raw.substr(0, line_end);

    HttpRequest request;
    HttpResponse response;
    bool not_get = false;
    if (request_line.empty() ||
        !parseRequestLine(request_line, request, not_get)) {
        response.status = not_get ? 405 : 400;
        response.contentType = "text/plain";
        response.body = not_get ? "only GET is supported\n"
                                : "malformed request\n";
    } else {
        bool matched = false;
        for (const auto &[path, handler] : handlers_) {
            if (path != request.path)
                continue;
            matched = true;
            response = handler(request);
            break;
        }
        if (!matched) {
            response.status = 404;
            response.contentType = "text/plain";
            response.body = "unknown path " + request.path + "\n";
        }
    }

    std::string head = format(
        "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
        response.status, httpStatusText(response.status),
        response.contentType.c_str(), response.body.size());
    sendAll(client_fd, head);
    sendAll(client_fd, response.body);
    served_.fetch_add(1, std::memory_order_relaxed);
}

Status
httpGetLocal(uint16_t port, const std::string &target,
             std::string *body, int *http_status)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Status::runtimeError(format("socket() failed: %s",
                                           std::strerror(errno)));
    timeval timeout;
    timeout.tv_sec = 5;
    timeout.tv_usec = 0;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                       sizeof(timeout));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        Status status = Status::runtimeError(
            format("connect(127.0.0.1:%u) failed: %s", port,
                   std::strerror(errno)));
        ::close(fd);
        return status;
    }
    std::string request =
        "GET " + target + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        ssize_t n = ::send(fd, request.data() + sent,
                           request.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            return Status::runtimeError("send() failed");
        }
        sent += static_cast<size_t>(n);
    }
    std::string raw;
    char buffer[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        raw.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    if (raw.empty())
        return Status::runtimeError("empty HTTP response");
    size_t header_end = raw.find("\r\n\r\n");
    size_t body_start =
        header_end == std::string::npos ? 0 : header_end + 4;
    if (http_status != nullptr) {
        *http_status = 0;
        size_t space = raw.find(' ');
        if (space != std::string::npos)
            *http_status =
                static_cast<int>(std::strtol(raw.c_str() + space + 1,
                                             nullptr, 10));
    }
    if (body != nullptr)
        *body = raw.substr(body_start);
    return Status::ok();
}

} // namespace sqlpp
