/**
 * @file
 * StatusServer tests: request parsing, routing, concurrent clients,
 * and lifecycle.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/status_server.h"

namespace sqlpp {
namespace {

TEST(HttpRequestTest, QueryU64ParsesAndFallsBack)
{
    HttpRequest request;
    request.query["since"] = "1024";
    request.query["bad"] = "12x";
    request.query["empty"] = "";
    EXPECT_EQ(request.queryU64("since", 7), 1024u);
    EXPECT_EQ(request.queryU64("bad", 7), 7u);
    EXPECT_EQ(request.queryU64("empty", 7), 7u);
    EXPECT_EQ(request.queryU64("absent", 7), 7u);
}

/** Send a raw request string and return the full raw response. */
std::string
rawRequest(uint16_t port, const std::string &request)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    std::string raw;
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
        raw.append(buffer, static_cast<size_t>(n));
    ::close(fd);
    return raw;
}

TEST(StatusServerTest, ServesRegisteredHandler)
{
    StatusServer server;
    server.handle("/status", [](const HttpRequest &request) {
        HttpResponse response;
        response.body = "since=" + std::to_string(
            request.queryU64("since", 0));
        return response;
    });
    ASSERT_TRUE(server.start(0).isOk());
    ASSERT_NE(server.port(), 0u);
    EXPECT_TRUE(server.running());

    std::string body;
    int http_status = 0;
    ASSERT_TRUE(httpGetLocal(server.port(), "/status?since=42", &body,
                             &http_status)
                    .isOk());
    EXPECT_EQ(http_status, 200);
    EXPECT_EQ(body, "since=42");
    EXPECT_GE(server.requestsServed(), 1u);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(StatusServerTest, UnknownPathIs404)
{
    StatusServer server;
    server.handle("/status", [](const HttpRequest &) {
        return HttpResponse{};
    });
    ASSERT_TRUE(server.start(0).isOk());
    std::string body;
    int http_status = 0;
    ASSERT_TRUE(httpGetLocal(server.port(), "/nope", &body,
                             &http_status)
                    .isOk());
    EXPECT_EQ(http_status, 404);
    server.stop();
}

TEST(StatusServerTest, NonGetIs405AndGarbageIs400)
{
    StatusServer server;
    server.handle("/status", [](const HttpRequest &) {
        return HttpResponse{};
    });
    ASSERT_TRUE(server.start(0).isOk());
    std::string post = rawRequest(
        server.port(), "POST /status HTTP/1.0\r\n\r\n");
    EXPECT_NE(post.find("405"), std::string::npos) << post;
    std::string garbage = rawRequest(server.port(), "garbage\r\n\r\n");
    EXPECT_NE(garbage.find("400"), std::string::npos) << garbage;
    server.stop();
}

TEST(StatusServerTest, StopIsIdempotentAndRestartable)
{
    StatusServer server;
    server.handle("/ping", [](const HttpRequest &) {
        HttpResponse response;
        response.body = "pong";
        return response;
    });
    ASSERT_TRUE(server.start(0).isOk());
    server.stop();
    server.stop();
    EXPECT_FALSE(server.running());
    // A stopped server can be started again (fresh ephemeral port).
    ASSERT_TRUE(server.start(0).isOk());
    std::string body;
    ASSERT_TRUE(
        httpGetLocal(server.port(), "/ping", &body, nullptr).isOk());
    EXPECT_EQ(body, "pong");
    server.stop();
}

TEST(StatusServerTest, SecondStartWhileRunningFails)
{
    StatusServer server;
    ASSERT_TRUE(server.start(0).isOk());
    EXPECT_FALSE(server.start(0).isOk());
    server.stop();
}

TEST(StatusServerTest, ConcurrentClientsAllServed)
{
    std::atomic<uint64_t> handled{0};
    StatusServer server;
    server.handle("/hit", [&handled](const HttpRequest &) {
        handled.fetch_add(1);
        HttpResponse response;
        response.body = "ok";
        return response;
    });
    ASSERT_TRUE(server.start(0).isOk());

    constexpr size_t kThreads = 8;
    constexpr size_t kRequests = 25;
    std::atomic<uint64_t> succeeded{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (size_t i = 0; i < kRequests; ++i) {
                std::string body;
                int http_status = 0;
                if (httpGetLocal(server.port(), "/hit", &body,
                                 &http_status)
                        .isOk() &&
                    http_status == 200 && body == "ok")
                    succeeded.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(succeeded.load(), kThreads * kRequests);
    EXPECT_EQ(handled.load(), kThreads * kRequests);
    EXPECT_EQ(server.requestsServed(), kThreads * kRequests);
    server.stop();
}

} // namespace
} // namespace sqlpp
