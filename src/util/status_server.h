/**
 * @file
 * Live campaign status service: a minimal localhost HTTP server.
 *
 * Long campaigns (the paper runs 24-hour fleets against 17 DBMSs) are
 * a black box between launch and the post-mortem metrics/trace export.
 * StatusServer closes that gap: a running campaign registers handlers
 * and the server answers GET requests over a 127.0.0.1 TCP socket —
 * `/status` (sqlpp.status.v1 snapshots), `/metrics` (Prometheus text
 * exposition), `/trace?since=<tick>` (incremental NDJSON drain).
 *
 * The server is deliberately tiny: HTTP/1.0, GET only, one request per
 * connection, sequential accept loop on one background thread. It is
 * an introspection side door for a human or a scraper on the same
 * machine, never a production web server. Handlers run on the server
 * thread and must be read-only with respect to campaign state — the
 * whole point is that polling /status perturbs nothing (the
 * determinism test pins bit-identical merged stats, checkpoints, and
 * dossiers with and without a polling storm).
 */
#ifndef SQLPP_UTIL_STATUS_SERVER_H
#define SQLPP_UTIL_STATUS_SERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sqlpp {

/** One parsed GET request. */
struct HttpRequest
{
    /** Path without the query string ("/trace"). */
    std::string path;
    /** Decoded query parameters ("since" -> "1024"). */
    std::map<std::string, std::string> query;

    /** Query parameter as uint64, or `fallback` when absent/garbled. */
    uint64_t queryU64(const std::string &key, uint64_t fallback) const;
};

/** What a handler sends back. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
};

using StatusHandler = std::function<HttpResponse(const HttpRequest &)>;

/** Localhost HTTP server for live campaign introspection. */
class StatusServer
{
  public:
    StatusServer();
    ~StatusServer();

    StatusServer(const StatusServer &) = delete;
    StatusServer &operator=(const StatusServer &) = delete;

    /**
     * Register a handler for an exact path ("/status"). Must be called
     * before start(); the handler runs on the server thread.
     */
    void handle(std::string path, StatusHandler handler);

    /**
     * Bind 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, read
     * back via port()) and start serving on a background thread.
     * Fails with RuntimeError when the socket cannot be bound.
     */
    Status start(uint16_t port);

    /** Stop serving and join the server thread. Idempotent. */
    void stop();

    /** The bound port (0 before a successful start()). */
    uint16_t port() const { return port_.load(); }

    bool running() const { return running_.load(); }

    /** Requests answered so far (any status code). */
    uint64_t requestsServed() const { return served_.load(); }

  private:
    void serveLoop();
    void serveOne(int client_fd);

    std::vector<std::pair<std::string, StatusHandler>> handlers_;
    std::thread thread_;
    std::atomic<uint16_t> port_{0};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<uint64_t> served_{0};
    int listen_fd_ = -1;
};

/**
 * Minimal blocking HTTP GET against 127.0.0.1:`port` (the test/smoke
 * client side of StatusServer).
 * `target` is the request target ("/status" or "/trace?since=4").
 * On success fills `body` (and `http_status` when non-null).
 */
Status httpGetLocal(uint16_t port, const std::string &target,
                    std::string *body, int *http_status = nullptr);

} // namespace sqlpp

#endif // SQLPP_UTIL_STATUS_SERVER_H
