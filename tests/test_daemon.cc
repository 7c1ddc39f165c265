/**
 * @file
 * End-to-end tests for daemon-mode rabsweep (sweep/serve): an
 * in-process Daemon on a private unix socket, exercised through real
 * FrameConn clients — the same code path `rabsweep --serve` runs.
 *
 * Covered here: submit/point/done streaming, cross-job store
 * deduplication, ping, every shed/error frame (bad-spec, queue-full,
 * too-large, protocol, idle-timeout), graceful drain delivering an
 * "interrupted" partial manifest, and startup failure reporting.
 * The TSan CI job runs this suite to certify the locking design.
 */

#include <gtest/gtest.h>

#ifdef __unix__

#include <unistd.h>

#include <string>
#include <vector>

#include "stats/json.hh"
#include "sweep/serve/daemon.hh"
#include "sweep/serve/protocol.hh"
#include "sweep/store/result_store.hh"
#include "temp_path.hh"

namespace rab
{
namespace
{

/** Short, unique socket path (sun_path is ~108 bytes — stay short). */
std::string
socketPath(const std::string &name)
{
    return "/tmp/rabd-" + std::to_string(::getpid()) + "-" + name
        + ".sock";
}

DaemonConfig
testConfig(const std::string &name)
{
    DaemonConfig config;
    config.socketPath = socketPath(name);
    config.threads = 2;
    config.ioTimeoutMs = 2'000;
    config.idleTimeoutMs = 60'000;
    config.retryBackoffMs = 0;
    return config;
}

Json
submitFrame(const std::vector<std::string> &workloads,
            const std::vector<std::string> &configs,
            std::uint64_t instructions, std::uint64_t warmup)
{
    Json campaign = Json::object();
    campaign["name"] = "daemon-test";
    Json w = Json::array();
    for (const std::string &name : workloads)
        w.push(name);
    campaign["workloads"] = std::move(w);
    Json c = Json::array();
    for (const std::string &name : configs)
        c.push(name);
    campaign["configs"] = std::move(c);
    campaign["instructions"] = instructions;
    campaign["warmup"] = warmup;

    Json frame = Json::object();
    frame["type"] = "submit";
    frame["campaign"] = std::move(campaign);
    return frame;
}

/** A connected test client; closes its fd on destruction. */
struct TestClient
{
    explicit TestClient(const std::string &path)
        : fd(connectUnixSocket(path)), conn(fd)
    {
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool ok() const { return fd >= 0; }

    /** Read + parse one frame; false on timeout/close/parse error. */
    bool
    read(Json &out, int timeout_ms = 30'000)
    {
        std::string payload;
        if (conn.readFrame(payload, timeout_ms) != FrameStatus::kOk)
            return false;
        try {
            out = Json::parse(payload);
        } catch (const JsonError &) {
            return false;
        }
        return true;
    }

    bool
    send(const Json &frame)
    {
        return conn.writeJson(frame, 2'000);
    }

    int fd;
    FrameConn conn;
};

TEST(Daemon, SubmitStreamsPointsAndCompletes)
{
    DaemonConfig config = testConfig("submit");
    const test::TempPath store_root("rabdaemon-submit");
    config.storeDir = store_root.str();
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    std::string first_manifest;
    {
        TestClient client(config.socketPath);
        ASSERT_TRUE(client.ok());
        ASSERT_TRUE(client.send(
            submitFrame({"mcf"}, {"baseline", "hybrid"}, 2'000, 500)));

        Json accepted;
        ASSERT_TRUE(client.read(accepted));
        EXPECT_EQ(accepted.at("type").asString(), "accepted");
        EXPECT_EQ(accepted.at("points").asU64(), 2u);

        // Two incremental point frames, then the done frame.
        std::size_t points = 0;
        Json frame;
        while (client.read(frame)
               && frame.at("type").asString() == "point") {
            ++points;
            EXPECT_TRUE(frame.at("ok").asBool())
                << frame.at("error").asString();
            EXPECT_FALSE(frame.at("cached").asBool());
        }
        EXPECT_EQ(points, 2u);
        ASSERT_EQ(frame.at("type").asString(), "done");
        EXPECT_EQ(frame.at("store_hits").asU64(), 0u);
        const Json &manifest = frame.at("manifest");
        EXPECT_EQ(
            manifest.at("campaign").at("points").asU64(), 2u);
        EXPECT_EQ(
            manifest.at("campaign").at("failed_points").asU64(), 0u);
        EXPECT_FALSE(
            manifest.at("campaign").at("interrupted").asBool());
        first_manifest = manifest.dump();
    }

    // A second client submitting the same grid is served entirely
    // from the store — zero new simulation, identical manifest.
    {
        TestClient client(config.socketPath);
        ASSERT_TRUE(client.ok());
        ASSERT_TRUE(client.send(
            submitFrame({"mcf"}, {"baseline", "hybrid"}, 2'000, 500)));

        Json frame;
        ASSERT_TRUE(client.read(frame)); // accepted
        std::size_t cached = 0;
        while (client.read(frame)
               && frame.at("type").asString() == "point")
            cached += frame.at("cached").asBool() ? 1 : 0;
        ASSERT_EQ(frame.at("type").asString(), "done");
        EXPECT_EQ(cached, 2u);
        EXPECT_EQ(frame.at("store_hits").asU64(), 2u);
        EXPECT_EQ(frame.at("manifest").dump(), first_manifest);
    }

    daemon.drainAndWait();
    EXPECT_EQ(daemon.stats().jobsCompleted.load(), 2u);
    EXPECT_EQ(daemon.stats().pointsSimulated.load(), 2u);
    EXPECT_EQ(daemon.stats().pointsCached.load(), 2u);
    EXPECT_EQ(daemon.stats().jobsInterrupted.load(), 0u);
}

TEST(Daemon, PingPong)
{
    const DaemonConfig config = testConfig("ping");
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());
    Json ping = Json::object();
    ping["type"] = "ping";
    ASSERT_TRUE(client.send(ping));
    Json pong;
    ASSERT_TRUE(client.read(pong));
    EXPECT_EQ(pong.at("type").asString(), "pong");
    daemon.drainAndWait();
}

TEST(Daemon, BadSpecIsRejectedWithAReason)
{
    const DaemonConfig config = testConfig("badspec");
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());

    // Unknown workload.
    ASSERT_TRUE(client.send(
        submitFrame({"no-such-workload"}, {"baseline"}, 2'000, 500)));
    Json frame;
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "bad-spec");
    EXPECT_NE(frame.at("message").asString().find("no-such-workload"),
              std::string::npos);

    // Unknown config label.
    ASSERT_TRUE(client.send(
        submitFrame({"mcf"}, {"warp-drive"}, 2'000, 500)));
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("code").asString(), "bad-spec");

    // Submit with no campaign member at all.
    Json bare = Json::object();
    bare["type"] = "submit";
    ASSERT_TRUE(client.send(bare));
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("code").asString(), "bad-spec");

    daemon.drainAndWait();
    EXPECT_EQ(daemon.stats().badSpecs.load(), 3u);
    EXPECT_EQ(daemon.stats().jobsAccepted.load(), 0u);
}

TEST(Daemon, AdmissionControlShedsWhenFull)
{
    // maxActiveJobs = 0 makes every submission shed deterministically
    // (no race against job completion).
    DaemonConfig config = testConfig("shed");
    config.maxActiveJobs = 0;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client.send(submitFrame({"mcf"}, {"baseline"}, 2'000, 500)));
    Json frame;
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "queue-full");
    // The shed frame is structured: it reports the limit it hit so a
    // client can back off intelligently.
    EXPECT_EQ(frame.at("active").asU64(), 0u);
    EXPECT_EQ(frame.at("limit").asU64(), 0u);

    daemon.drainAndWait();
    EXPECT_EQ(daemon.stats().jobsShed.load(), 1u);
}

TEST(Daemon, OversizedGridIsShed)
{
    DaemonConfig config = testConfig("toolarge");
    config.maxPointsPerJob = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(
        submitFrame({"mcf"}, {"baseline", "hybrid"}, 2'000, 500)));
    Json frame;
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "too-large");
    daemon.drainAndWait();
}

TEST(Daemon, MalformedFramesGetProtocolErrors)
{
    const DaemonConfig config = testConfig("protocol");
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());

    // Not JSON at all.
    ASSERT_TRUE(client.conn.writeFrame("this is not json", 2'000));
    Json frame;
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "protocol");

    // Valid JSON, unknown type.
    Json bogus = Json::object();
    bogus["type"] = "warp";
    ASSERT_TRUE(client.send(bogus));
    ASSERT_TRUE(client.read(frame));
    EXPECT_EQ(frame.at("code").asString(), "protocol");

    daemon.drainAndWait();
}

TEST(Daemon, DrainDeliversPartialManifest)
{
    // One worker, a six-point grid with a real instruction budget:
    // the drain request lands while most of the grid is still queued,
    // so the client must receive an "interrupted" frame carrying a
    // partial manifest (the daemon-side analogue of Ctrl-C).
    DaemonConfig config = testConfig("drain");
    config.threads = 1;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.send(submitFrame(
        {"mcf", "libq"}, {"baseline", "hybrid", "hybrid+pf"},
        200'000, 1'000)));
    Json frame;
    ASSERT_TRUE(client.read(frame));
    ASSERT_EQ(frame.at("type").asString(), "accepted");

    daemon.drainAndWait();

    // Drain the socket: zero or more point frames, then interrupted.
    while (client.read(frame)
           && frame.at("type").asString() == "point") {
    }
    ASSERT_EQ(frame.at("type").asString(), "interrupted");
    const Json &manifest = frame.at("manifest");
    EXPECT_TRUE(manifest.at("campaign").at("interrupted").asBool());
    EXPECT_GT(manifest.at("campaign").at("skipped_points").asU64(),
              0u);
    EXPECT_EQ(manifest.at("campaign").at("points").asU64(), 6u);
    EXPECT_EQ(daemon.stats().jobsInterrupted.load(), 1u);
    EXPECT_EQ(daemon.stats().jobsCompleted.load(), 0u);
}

TEST(Daemon, IdleClientIsReaped)
{
    DaemonConfig config = testConfig("idle");
    config.idleTimeoutMs = 100;
    Daemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.error();

    TestClient client(config.socketPath);
    ASSERT_TRUE(client.ok());
    // Send nothing: the daemon must say goodbye and hang up rather
    // than hold the connection slot forever.
    Json frame;
    ASSERT_TRUE(client.read(frame, 5'000));
    EXPECT_EQ(frame.at("type").asString(), "error");
    EXPECT_EQ(frame.at("code").asString(), "idle-timeout");
    std::string rest;
    EXPECT_EQ(client.conn.readFrame(rest, 5'000),
              FrameStatus::kClosed);
    daemon.drainAndWait();
}

TEST(Daemon, StartFailureIsReportedNotFatal)
{
    DaemonConfig config = testConfig("badpath");
    config.socketPath = "/definitely/not/a/dir/rabd.sock";
    Daemon daemon(config);
    EXPECT_FALSE(daemon.start());
    EXPECT_FALSE(daemon.error().empty());
    daemon.drainAndWait(); // Must be safe after a failed start.
}

} // namespace
} // namespace rab

#else // !__unix__

TEST(Daemon, UnsupportedPlatform)
{
    GTEST_SKIP() << "daemon mode requires unix sockets";
}

#endif
