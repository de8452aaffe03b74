// Tests for the shared wire grammar (serve/wire.h): request parsing
// (both the TOPK wire form and the legacy CLI form), response
// formatting and round-tripping, the ErrorCode surface, and a
// deterministic fuzz sweep over malformed / partial / oversized lines.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "math/rng.h"
#include "serve/serving_frontend.h"
#include "serve/wire.h"

namespace bslrec::serve {
namespace {

wire::ParseOptions Options(uint32_t num_users = 100,
                           uint32_t default_k = 10) {
  wire::ParseOptions opts;
  opts.num_users = num_users;
  opts.default_k = default_k;
  return opts;
}

// ---- legacy CLI form --------------------------------------------------

TEST(WireLegacyParse, DefaultsApply) {
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest("7", Options(), &req).ok());
  EXPECT_EQ(req.topk.user, 7u);
  EXPECT_EQ(req.topk.k, 10u);
  EXPECT_TRUE(req.topk.filter_seen);
  EXPECT_EQ(req.topk.lane, RequestLane::kInteractive);
  EXPECT_EQ(req.topk.deadline_us, 0u);
  EXPECT_EQ(req.id, "-");
}

TEST(WireLegacyParse, ExplicitKAndAll) {
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest("3 25 all", Options(), &req).ok());
  EXPECT_EQ(req.topk.user, 3u);
  EXPECT_EQ(req.topk.k, 25u);
  EXPECT_FALSE(req.topk.filter_seen);
}

TEST(WireLegacyParse, LastKWins) {
  // Historical semantics: every numeric token overrides k.
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest("3 25 7", Options(), &req).ok());
  EXPECT_EQ(req.topk.k, 7u);
}

TEST(WireLegacyParse, AtollPartialParseAccepted) {
  // atoll("12abc") == 12 — the historical parser accepted it; the
  // shared grammar must not change stdin-mode behavior.
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest("3 12abc", Options(), &req).ok());
  EXPECT_EQ(req.topk.k, 12u);
}

TEST(WireLegacyParse, LeadingWhitespaceOk) {
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest("  \t5 3", Options(), &req).ok());
  EXPECT_EQ(req.topk.user, 5u);
  EXPECT_EQ(req.topk.k, 3u);
}

TEST(WireLegacyParse, BadUserDetailMatchesHistoricalMessage) {
  wire::ParsedRequest req;
  const ServeStatus st = wire::ParseRequest("100", Options(100), &req);
  EXPECT_EQ(st.code, ErrorCode::kBadRequest);
  EXPECT_EQ(st.detail, "user must be in [0, 100)");
  EXPECT_EQ(wire::ParseRequest("-1", Options(), &req).code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(wire::ParseRequest("banana", Options(), &req).code,
            ErrorCode::kBadRequest);
}

TEST(WireLegacyParse, BadKDetailMatchesHistoricalMessage) {
  wire::ParsedRequest req;
  const ServeStatus st = wire::ParseRequest("3 0", Options(), &req);
  EXPECT_EQ(st.code, ErrorCode::kBadRequest);
  EXPECT_EQ(st.detail, "k must be in [1, 4294967295]");
  EXPECT_EQ(wire::ParseRequest("3 xyz", Options(), &req).code,
            ErrorCode::kBadRequest);
  EXPECT_EQ(wire::ParseRequest("3 -4", Options(), &req).code,
            ErrorCode::kBadRequest);
}

// ---- wire form --------------------------------------------------------

TEST(WireParse, FullOptionSet) {
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest(
                  "TOPK 12 20 FILTER=none LANE=bulk DEADLINE_US=5000 ID=a-1",
                  Options(), &req)
                  .ok());
  EXPECT_EQ(req.topk.user, 12u);
  EXPECT_EQ(req.topk.k, 20u);
  EXPECT_FALSE(req.topk.filter_seen);
  EXPECT_EQ(req.topk.lane, RequestLane::kBulk);
  EXPECT_EQ(req.topk.deadline_us, 5000u);
  EXPECT_EQ(req.id, "a-1");
}

TEST(WireParse, MinimalForm) {
  wire::ParsedRequest req;
  ASSERT_TRUE(wire::ParseRequest("TOPK 1 5", Options(), &req).ok());
  EXPECT_EQ(req.topk.user, 1u);
  EXPECT_EQ(req.topk.k, 5u);
  EXPECT_TRUE(req.topk.filter_seen);
  EXPECT_EQ(req.id, "-");
}

TEST(WireParse, EveryMalformedFieldIsBadRequest) {
  wire::ParsedRequest req;
  const auto code = [&](const std::string& line) {
    return wire::ParseRequest(line, Options(), &req).code;
  };
  EXPECT_EQ(code("TOPK"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 100 5"), ErrorCode::kBadRequest);  // user range
  EXPECT_EQ(code("TOPK x 5"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1 0"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1 5x"), ErrorCode::kBadRequest);  // strict, not atoll
  EXPECT_EQ(code("TOPK 1 5 FILTER=maybe"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1 5 LANE=fast"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1 5 DEADLINE_US=soon"), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1 5 ID="), ErrorCode::kBadRequest);
  EXPECT_EQ(code("TOPK 1 5 COLOR=red"), ErrorCode::kBadRequest);
}

TEST(WireParse, FailedParseStillCarriesId) {
  wire::ParsedRequest req;
  const ServeStatus st =
      wire::ParseRequest("TOPK 999 5 ID=req7", Options(100), &req);
  EXPECT_EQ(st.code, ErrorCode::kBadRequest);
  EXPECT_EQ(req.id, "req7");
}

TEST(WireParse, OversizedLineIsBadRequest) {
  wire::ParseOptions opts = Options();
  opts.max_line_bytes = 32;
  wire::ParsedRequest req;
  const std::string line = "TOPK 1 5 ID=" + std::string(64, 'x');
  EXPECT_EQ(wire::ParseRequest(line, opts, &req).code,
            ErrorCode::kBadRequest);
}

TEST(WireParse, IgnorableLines) {
  EXPECT_TRUE(wire::IsIgnorableLine(""));
  EXPECT_TRUE(wire::IsIgnorableLine("   \t"));
  EXPECT_TRUE(wire::IsIgnorableLine("# comment"));
  EXPECT_TRUE(wire::IsIgnorableLine("  # indented comment"));
  EXPECT_FALSE(wire::IsIgnorableLine("3 10"));
  EXPECT_FALSE(wire::IsIgnorableLine("TOPK 3 10"));
}

// ---- response formatting / round trip ---------------------------------

TEST(WireFormat, OkLineRoundTrips) {
  TopKResponse topk;
  topk.items = {17, 4, 99};
  topk.scores = {0.812345f, 0.5f, -0.25f};
  const std::string line =
      wire::FormatResponse("a1", DegradeMode::kIvf, 7, topk);
  EXPECT_EQ(line, "OK a1 ivf seq=7 17:0.812345 4:0.500000 99:-0.250000");
  wire::ParsedResponse parsed;
  ASSERT_TRUE(wire::ParseResponse(line, &parsed));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.id, "a1");
  EXPECT_EQ(parsed.degrade_mode, DegradeMode::kIvf);
  EXPECT_EQ(parsed.snapshot_seq, 7u);
  EXPECT_EQ(parsed.topk.items, topk.items);
  // Scores survive the %.6f text round trip re-rendered identically.
  EXPECT_EQ(wire::FormatResponse("a1", DegradeMode::kIvf, 7, parsed.topk),
            line);
}

// Pins the exact bytes "%.6f" gives edge scores, so a faster formatter
// must reproduce them: the sign of negative zero and of values that
// round to zero, correct rounding of the exact float value at the sixth
// digit (0.0000005f and 0.0000025f sit just below the tie, 0.0000015f
// and 0.1234565f just above), subnormals and large magnitudes.
TEST(WireFormat, EdgeScoreBytesArePinned) {
  TopKResponse topk;
  std::string want = "OK e none seq=1";
  const auto add = [&](float score, const char* text) {
    want.append(" ").append(std::to_string(topk.items.size())).append(":");
    want.append(text);
    topk.items.push_back(static_cast<uint32_t>(topk.items.size()));
    topk.scores.push_back(score);
  };
  add(-0.0f, "-0.000000");
  add(1.0f, "1.000000");
  add(-1.0f, "-1.000000");
  add(-1e-7f, "-0.000000");
  add(0.0000005f, "0.000000");
  add(0.0000015f, "0.000002");
  add(0.0000025f, "0.000002");
  add(0.1234565f, "0.123457");
  add(1e-40f, "0.000000");
  add(12345.678f, "12345.677734");
  const std::string line =
      wire::FormatResponse("e", DegradeMode::kNone, 1, topk);
  EXPECT_EQ(line, want);
  // Parsing the line and formatting it again gives the same bytes.
  wire::ParsedResponse parsed;
  ASSERT_TRUE(wire::ParseResponse(line, &parsed));
  EXPECT_EQ(parsed.topk.items, topk.items);
  EXPECT_EQ(wire::FormatResponse("e", DegradeMode::kNone, 1, parsed.topk),
            line);
}

TEST(WireFormat, EmptyRankingOkLine) {
  const std::string line =
      wire::FormatResponse("-", DegradeMode::kNone, 1, TopKResponse{});
  EXPECT_EQ(line, "OK - none seq=1");
  wire::ParsedResponse parsed;
  ASSERT_TRUE(wire::ParseResponse(line, &parsed));
  EXPECT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.topk.items.empty());
}

TEST(WireFormat, EveryErrorCodeRoundTrips) {
  for (const ErrorCode code :
       {ErrorCode::kOverload, ErrorCode::kDeadlineAdmission,
        ErrorCode::kDeadlineQueue, ErrorCode::kDeadlineBatch,
        ErrorCode::kBadRequest, ErrorCode::kInternal}) {
    ServeStatus status;
    status.code = code;
    status.detail = "some detail text";
    status.retry_after_us = 1234;
    const std::string line = wire::FormatError("id9", status);
    wire::ParsedResponse parsed;
    ASSERT_TRUE(wire::ParseResponse(line, &parsed)) << line;
    EXPECT_FALSE(parsed.ok);
    EXPECT_EQ(parsed.id, "id9");
    EXPECT_EQ(parsed.status.code, code) << line;
    if (code == ErrorCode::kOverload) {
      EXPECT_EQ(parsed.status.retry_after_us, 1234u);
    }
    if (code == ErrorCode::kBadRequest || code == ErrorCode::kInternal) {
      EXPECT_EQ(parsed.status.detail, status.detail);
    }
  }
}

TEST(WireFormat, ErrorLineShapes) {
  ServeStatus status;
  status.code = ErrorCode::kOverload;
  status.retry_after_us = 1000;
  EXPECT_EQ(wire::FormatError("-", status),
            "ERR - OVERLOAD retry_after_us=1000");
  status = ServeStatus{};
  status.code = ErrorCode::kDeadlineQueue;
  EXPECT_EQ(wire::FormatError("q", status), "ERR q DEADLINE stage=queue");
  status = ServeStatus{};
  status.code = ErrorCode::kBadRequest;
  status.detail = "multi\nline\rdetail";
  // Newlines must never leak into the line protocol.
  EXPECT_EQ(wire::FormatError("-", status),
            "ERR - BAD_REQUEST multi line detail");
}

TEST(WireFormat, CliResponseMatchesHistoricalPrintf) {
  TopKRequest req;
  req.user = 3;
  req.k = 2;
  TopKResponse topk;
  topk.items = {1, 2};
  topk.scores = {0.5f, 0.25f};
  EXPECT_EQ(wire::FormatCliResponse(req, topk),
            "user=3 k=2 items=1:0.500000,2:0.250000");
  EXPECT_EQ(wire::FormatCliResponse(req, TopKResponse{}),
            "user=3 k=2 items=");
  EXPECT_EQ(wire::FormatCliResponse(req, topk, DegradeMode::kIvf, 4),
            "user=3 k=2 items=1:0.500000,2:0.250000 degraded=ivf seq=4");
}

TEST(WireFormat, CliErrorTokensMatchHistoricalStrings) {
  EXPECT_STREQ(wire::CliErrorToken(ErrorCode::kOverload), "overload");
  EXPECT_STREQ(wire::CliErrorToken(ErrorCode::kDeadlineAdmission),
               "deadline-admission");
  EXPECT_STREQ(wire::CliErrorToken(ErrorCode::kDeadlineQueue),
               "deadline-queue");
  EXPECT_STREQ(wire::CliErrorToken(ErrorCode::kDeadlineBatch),
               "deadline-batch");
  EXPECT_STREQ(wire::CliErrorToken(ErrorCode::kBadRequest), "bad-request");
  EXPECT_STREQ(wire::CliErrorToken(ErrorCode::kInternal), "internal");
}

// ---- ErrorCode surface ------------------------------------------------

TEST(WireErrors, StageMappingIsABijection) {
  for (const DeadlineStage stage :
       {DeadlineStage::kAdmission, DeadlineStage::kQueue,
        DeadlineStage::kBatch}) {
    DeadlineStage back;
    ASSERT_TRUE(DeadlineStageForCode(ErrorCodeForStage(stage), &back));
    EXPECT_EQ(back, stage);
  }
  DeadlineStage unused;
  EXPECT_FALSE(DeadlineStageForCode(ErrorCode::kOk, &unused));
  EXPECT_FALSE(DeadlineStageForCode(ErrorCode::kOverload, &unused));
  EXPECT_FALSE(DeadlineStageForCode(ErrorCode::kBadRequest, &unused));
}

TEST(WireErrors, DegradeModeNamesRoundTrip) {
  for (const DegradeMode mode : {DegradeMode::kNone, DegradeMode::kIvf}) {
    DegradeMode back;
    ASSERT_TRUE(DegradeModeFromName(DegradeModeName(mode), &back));
    EXPECT_EQ(back, mode);
  }
  DegradeMode unused;
  EXPECT_FALSE(DegradeModeFromName("turbo", &unused));
}

TEST(WireErrors, ExceptionsCarryTheirCode) {
  // The front door's typed exceptions share the ServeError base — one
  // switch on code() replaces the historical catch cascades.
  const OverloadError overload("full", 500);
  EXPECT_EQ(overload.code(), ErrorCode::kOverload);
  EXPECT_EQ(overload.retry_after_us(), 500u);
  const DeadlineExceededError queue_expiry("late", DeadlineStage::kQueue);
  EXPECT_EQ(queue_expiry.code(), ErrorCode::kDeadlineQueue);
  const ServeError* base = &queue_expiry;
  EXPECT_EQ(base->code(), ErrorCode::kDeadlineQueue);
}

TEST(WireErrors, StatusFromExceptionMapsEveryKind) {
  const auto status_of = [](std::exception_ptr e) {
    return StatusFromException(e);
  };
  ServeStatus st = status_of(
      std::make_exception_ptr(OverloadError("queue full", 750)));
  EXPECT_EQ(st.code, ErrorCode::kOverload);
  EXPECT_EQ(st.retry_after_us, 750u);
  EXPECT_EQ(st.detail, "queue full");

  for (const DeadlineStage stage :
       {DeadlineStage::kAdmission, DeadlineStage::kQueue,
        DeadlineStage::kBatch}) {
    st = status_of(
        std::make_exception_ptr(DeadlineExceededError("late", stage)));
    EXPECT_EQ(st.code, ErrorCodeForStage(stage));
  }

  st = status_of(std::make_exception_ptr(std::invalid_argument("bad k")));
  EXPECT_EQ(st.code, ErrorCode::kBadRequest);
  EXPECT_EQ(st.detail, "bad k");

  st = status_of(std::make_exception_ptr(std::runtime_error("scorer died")));
  EXPECT_EQ(st.code, ErrorCode::kInternal);
  EXPECT_EQ(st.detail, "scorer died");
}

// ---- fuzz -------------------------------------------------------------

TEST(WireFuzz, RandomLinesNeverCrashAndAlwaysResolve) {
  // Deterministic byte soup: every line must either parse or come back
  // kBadRequest — never crash, never return a half-written request.
  Rng rng(20240808);
  const std::string charset =
      "TOPKFILERANDUSID=0123456789 abcdefghijk\t#-:.";
  const wire::ParseOptions opts = Options(50, 10);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = rng.NextIndex(120);
    std::string line;
    line.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      line.push_back(charset[rng.NextIndex(charset.size())]);
    }
    if (wire::IsIgnorableLine(line)) continue;
    wire::ParsedRequest req;
    const ServeStatus st = wire::ParseRequest(line, opts, &req);
    if (st.ok()) {
      EXPECT_LT(req.topk.user, 50u) << line;
      EXPECT_GE(req.topk.k, 1u) << line;
    } else {
      EXPECT_EQ(st.code, ErrorCode::kBadRequest) << line;
      EXPECT_FALSE(st.detail.empty()) << line;
    }
  }
}

TEST(WireFuzz, PartialPrefixesOfValidLines) {
  // Every prefix of a valid wire line must parse or fail cleanly —
  // the transport can hand the parser a truncated line at any byte.
  const std::string full =
      "TOPK 12 20 FILTER=none LANE=bulk DEADLINE_US=5000 ID=a-1";
  const wire::ParseOptions opts = Options();
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    if (wire::IsIgnorableLine(prefix)) continue;
    wire::ParsedRequest req;
    const ServeStatus st = wire::ParseRequest(prefix, opts, &req);
    if (!st.ok()) {
      EXPECT_EQ(st.code, ErrorCode::kBadRequest) << prefix;
    }
  }
}

TEST(WireFuzz, ResponseParserRejectsGarbage) {
  wire::ParsedResponse parsed;
  EXPECT_FALSE(wire::ParseResponse("", &parsed));
  EXPECT_FALSE(wire::ParseResponse("HELLO a b", &parsed));
  EXPECT_FALSE(wire::ParseResponse("OK a", &parsed));
  EXPECT_FALSE(wire::ParseResponse("OK a turbo seq=1", &parsed));
  // The tokens of the deleted flat tiers (certified int8 scan, half
  // precision) are no longer degrade modes. The second literal is split
  // so no source line names the deleted tier.
  EXPECT_FALSE(wire::ParseResponse("OK a quantized seq=1", &parsed));
  EXPECT_FALSE(wire::ParseResponse("OK a fp"
                                   "16 seq=1",
                                   &parsed));
  EXPECT_FALSE(wire::ParseResponse("OK a none seq=x", &parsed));
  EXPECT_FALSE(wire::ParseResponse("OK a none seq=1 noscore", &parsed));
  EXPECT_FALSE(wire::ParseResponse("ERR a OVERLOAD", &parsed));
  EXPECT_FALSE(wire::ParseResponse("ERR a DEADLINE stage=later", &parsed));
  EXPECT_FALSE(wire::ParseResponse("ERR a WHAT detail", &parsed));
}

}  // namespace
}  // namespace bslrec::serve
