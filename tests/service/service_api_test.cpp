// The o2o::api frame contract and its ndjson codec: every struct must
// survive an encode/decode round trip bit for bit (doubles included),
// wrong API major versions must be rejected, malformed lines must fail
// with a message instead of crashing, and optional fields must default.
// The decoder's grammar is pinned too (free key order, JSON whitespace,
// skipped unknown keys, rejected duplicate keys and non-RFC-8259
// numbers), and a seeded mutation fuzzer checks that any byte stream
// either decodes to a value that round-trips or fails with a message.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "service/api.h"
#include "service/codec.h"

namespace o2o::service {
namespace {

api::Order sample_order() {
  api::Order order;
  order.order_id = 42;
  order.timestamp = 64800.125;
  order.start = {0.1, -0.2};
  order.finish = {1.0 / 3.0, 2.0 / 7.0};
  order.seats = 2;
  order.reward_units = 12.75;
  return order;
}

api::Driver sample_busy_driver() {
  api::Driver driver;
  driver.driver_id = 7;
  driver.location = {3.25, -4.5};
  driver.seats = 4;
  driver.seats_in_use = 3;
  driver.onboard = {11, 19};
  driver.route = {
      api::DriverStop{23, true, {5.0, 5.0}},
      api::DriverStop{11, false, {6.0, -1.0}},
      api::DriverStop{19, false, {0.0, 0.0}},
      api::DriverStop{23, false, {2.0, 2.0}},
  };
  driver.route_seats = {{11, 1}, {19, 2}, {23, 1}};
  return driver;
}

/// std::to_chars' shortest round-trip text, which the encoder writes.
std::string shortest(double value) {
  char buffer[32];
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

std::string decode_error(std::string_view line) {
  CodecError error;
  const auto decoded = decode_event(line, &error);
  EXPECT_FALSE(decoded.has_value()) << line;
  return error.message;
}

TEST(ServiceApi, VersionConstantsAreFrozen) {
  EXPECT_EQ(api::kApiVersionMajor, 1);
  EXPECT_EQ(api::kApiVersionMinor, 0);
}

TEST(ServiceApi, OrderEventRoundTrips) {
  const api::RideEvent event = api::RideEvent::make_order(sample_order());
  const auto decoded = decode_event(encode_event(event));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, event);
}

TEST(ServiceApi, BusyDriverEventRoundTrips) {
  const api::RideEvent event = api::RideEvent::make_driver(sample_busy_driver());
  const auto decoded = decode_event(encode_event(event));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, event);
}

TEST(ServiceApi, BarrierEventRoundTrips) {
  const api::RideEvent event =
      api::RideEvent::make_end_frame(std::uint64_t{1} << 53, 86399.9375);
  const auto decoded = decode_event(encode_event(event));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, api::RideEvent::Kind::kEndFrame);
  EXPECT_EQ(decoded->frame, std::uint64_t{1} << 53);
  EXPECT_EQ(decoded->timestamp, 86399.9375);
}

TEST(ServiceApi, AwkwardDoublesRoundTripBitForBit) {
  // %.17g must reproduce the exact IEEE-754 bits: repeating fractions,
  // huge and denormal magnitudes, and negative zero.
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          1e300,
                          -1e-300,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          -0.0,
                          123456.78901234567};
  for (const double value : cases) {
    api::Order order = sample_order();
    order.timestamp = value;
    order.start.x = value;
    const auto decoded = decode_event(encode_event(api::RideEvent::make_order(order)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->order.timestamp),
              std::bit_cast<std::uint64_t>(value))
        << value;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->order.start.x),
              std::bit_cast<std::uint64_t>(value))
        << value;
  }

  // The encoder writes the shortest round-trip text, and that exact text
  // re-parses to the same bits: the extremes by name, then random bit
  // patterns across the whole finite range.
  EXPECT_EQ(shortest(std::numeric_limits<double>::denorm_min()), "5e-324");
  EXPECT_EQ(shortest(-0.0), "-0");
  EXPECT_EQ(shortest(std::numeric_limits<double>::max()), "1.7976931348623157e+308");
  std::vector<double> values(std::begin(cases), std::end(cases));
  std::mt19937_64 rng(2017);
  while (values.size() < 2000) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const double value : values) {
    const std::string text = shortest(value);
    api::Order order = sample_order();
    order.timestamp = value;
    const std::string line = encode_event(api::RideEvent::make_order(order));
    EXPECT_NE(line.find("\"timestamp\":" + text + ","), std::string::npos) << line;
    const auto decoded = decode_event(line);
    ASSERT_TRUE(decoded.has_value()) << line;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->order.timestamp),
              std::bit_cast<std::uint64_t>(value))
        << text;
  }
}

TEST(ServiceApi, ResponseRoundTrips) {
  api::FrameResponse response;
  response.frame = 17;
  response.timestamp = 1020.0;
  api::Assignment assignment;
  assignment.driver_id = 3;
  assignment.order_ids = {42, 43};
  assignment.start = {0.5, 0.25};
  assignment.route = {api::DriverStop{42, true, {1.0, 1.0}},
                      api::DriverStop{43, true, {1.5, 1.0}},
                      api::DriverStop{42, false, {2.0, 2.0}},
                      api::DriverStop{43, false, {3.0, 2.0}}};
  assignment.pick_up_eta = 90.5;
  response.assignments = {assignment};

  const auto decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, response);
}

TEST(ServiceApi, EmptyResponseRoundTrips) {
  api::FrameResponse response;
  response.frame = 0;
  response.timestamp = 60.0;
  const auto decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, response);
}

TEST(ServiceApi, FrameEventsEndWithTheBarrier) {
  api::FrameRequest request;
  request.frame = 9;
  request.timestamp = 540.0;
  request.orders = {sample_order()};
  request.drivers = {sample_busy_driver()};

  const auto lines = encode_frame_events(request);
  ASSERT_EQ(lines.size(), 3u);  // orders, drivers, barrier

  api::FrameRequest rebuilt;
  for (const std::string& line : lines) {
    const auto event = decode_event(line);
    ASSERT_TRUE(event.has_value()) << line;
    switch (event->kind) {
      case api::RideEvent::Kind::kOrder: rebuilt.orders.push_back(event->order); break;
      case api::RideEvent::Kind::kDriver:
        rebuilt.drivers.push_back(event->driver);
        break;
      case api::RideEvent::Kind::kEndFrame:
        rebuilt.frame = event->frame;
        rebuilt.timestamp = event->timestamp;
        break;
    }
  }
  const auto barrier = decode_event(lines.back());
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(barrier->kind, api::RideEvent::Kind::kEndFrame);
  EXPECT_EQ(rebuilt, request);
}

TEST(ServiceApi, WrongMajorVersionIsRejected) {
  CodecError error;
  const auto decoded = decode_event(
      R"({"v":2,"event":"end_frame","frame":0,"timestamp":0})", &error);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_NE(error.message.find("version"), std::string::npos) << error.message;
}

TEST(ServiceApi, MissingVersionIsRejected) {
  CodecError error;
  const auto decoded =
      decode_event(R"({"event":"end_frame","frame":0,"timestamp":0})", &error);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_FALSE(error.message.empty());
}

TEST(ServiceApi, MalformedLinesFailWithAMessage) {
  const char* bad[] = {
      "",
      "not json",
      "{",
      R"({"v":1})",
      R"({"v":1,"event":"unknown"})",
      R"({"v":1,"event":"order","order_id":1})",
      R"({"v":1,"event":"order","order_id":1,"timestamp":0,"start":[0],"finish":[1,1]})",
  };
  for (const char* line : bad) {
    CodecError error;
    const auto decoded = decode_event(line, &error);
    EXPECT_FALSE(decoded.has_value()) << line;
    EXPECT_FALSE(error.message.empty()) << line;
  }
}

TEST(ServiceApi, OptionalFieldsDefault) {
  const auto order = decode_event(
      R"({"v":1,"event":"order","order_id":5,"timestamp":30,"start":[0,0],"finish":[1,1]})");
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->order.seats, 1);
  EXPECT_EQ(order->order.reward_units, 0.0);

  const auto driver =
      decode_event(R"({"v":1,"event":"driver","driver_id":9,"location":[2,3]})");
  ASSERT_TRUE(driver.has_value());
  EXPECT_EQ(driver->driver.seats, 4);
  EXPECT_EQ(driver->driver.seats_in_use, 0);
  EXPECT_TRUE(driver->driver.onboard.empty());
  EXPECT_TRUE(driver->driver.route.empty());
  EXPECT_TRUE(driver->driver.route_seats.empty());
  EXPECT_TRUE(driver->driver.idle());
}

TEST(ServiceApi, PresentButMalformedOptionalFieldsAreRejected) {
  CodecError error;
  const auto decoded = decode_event(
      R"({"v":1,"event":"driver","driver_id":9,"location":[2,3],"route":"nope"})",
      &error);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_FALSE(error.message.empty());
}

TEST(ServiceApi, DeepNestingFailsInsteadOfOverflowingTheStack) {
  std::string hostile(100000, '[');
  CodecError error;
  const auto decoded = decode_event(hostile, &error);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_NE(error.message.find("nesting"), std::string::npos) << error.message;
}

TEST(ServiceApi, NonIntegerIdsAreRejectedNotTruncated) {
  const char* bad[] = {
      // 1.9 must not silently become order 1.
      R"({"v":1,"event":"order","order_id":1.9,"timestamp":0,"start":[0,0],"finish":[1,1]})",
      // Exponent notation is not an id either.
      R"({"v":1,"event":"order","order_id":1e2,"timestamp":0,"start":[0,0],"finish":[1,1]})",
      // Out of int32 range must not wrap into a different valid id.
      R"({"v":1,"event":"order","order_id":99999999999,"timestamp":0,"start":[0,0],"finish":[1,1]})",
      // Frame numbers are unsigned.
      R"({"v":1,"event":"end_frame","frame":-1,"timestamp":0})",
      // Onboard id lists go through the same strict path.
      R"({"v":1,"event":"driver","driver_id":9,"location":[2,3],"onboard":[1.5]})",
      // So do route_seats pairs.
      R"({"v":1,"event":"driver","driver_id":9,"location":[2,3],"route_seats":[[1,2.5]]})",
  };
  for (const char* line : bad) {
    CodecError error;
    const auto decoded = decode_event(line, &error);
    EXPECT_FALSE(decoded.has_value()) << line;
    EXPECT_FALSE(error.message.empty()) << line;
  }
}

TEST(ServiceApi, BoundaryIdsStillDecodeExactly) {
  const auto decoded = decode_event(
      R"({"v":1,"event":"order","order_id":-2147483648,"timestamp":0,)"
      R"("start":[0,0],"finish":[1,1],"seats":1})");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->order.order_id, std::numeric_limits<std::int32_t>::min());

  const auto barrier = decode_event(
      R"({"v":1,"event":"end_frame","frame":18446744073709551615,"timestamp":0})");
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(barrier->frame, std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// The decoder's grammar.
// ---------------------------------------------------------------------------

TEST(ServiceApi, KeyOrderIsFree) {
  // "v" and "event" last, everything else reversed.
  const auto order = decode_event(
      R"({"reward_units":12.75,"seats":2,"finish":[0.5,0.25],"start":[0.1,-0.2],)"
      R"("timestamp":64800.125,"order_id":42,"event":"order","v":1})");
  ASSERT_TRUE(order.has_value());
  api::Order expected = sample_order();
  expected.finish = {0.5, 0.25};
  EXPECT_EQ(*order, api::RideEvent::make_order(expected));

  const auto stop_first = decode_event(
      R"({"route":[{"point":[5,5],"pickup":true,"order_id":23}],"route_seats":[[23,1]],)"
      R"("location":[3.25,-4.5],"driver_id":7,"event":"driver","v":1})");
  ASSERT_TRUE(stop_first.has_value());
  ASSERT_EQ(stop_first->driver.route.size(), 1u);
  EXPECT_EQ(stop_first->driver.route[0], (api::DriverStop{23, true, {5.0, 5.0}}));
}

TEST(ServiceApi, JsonWhitespaceIsAccepted) {
  const auto barrier = decode_event(
      " {\t\"v\" : 1 ,\r\n \"event\":\"end_frame\" ,\"frame\" :\n3, \"timestamp\": 1.5 }\r\n");
  ASSERT_TRUE(barrier.has_value());
  EXPECT_EQ(*barrier, api::RideEvent::make_end_frame(3, 1.5));

  const auto driver = decode_event(
      R"({ "v":1, "event":"driver", "driver_id":9, "location":[ 2 , 3 ], "onboard":[ ],)"
      R"( "route":[ { "order_id":1 , "pickup":false , "point":[ 0 , 1 ] } ] })");
  ASSERT_TRUE(driver.has_value());
  EXPECT_EQ(driver->driver.route.size(), 1u);
  // JSON whitespace is space, tab, LF and CR only.
  EXPECT_FALSE(decode_error("{\"v\":1,\f\"event\":\"end_frame\",\"frame\":3,\"timestamp\":1}")
                   .empty());
}

TEST(ServiceApi, UnknownFieldsAreSkipped) {
  const auto order = decode_event(
      R"({"v":1,"event":"order","note":"say \"hi\"\n","order_id":5,"extra":{"a":[1,)"
      R"({"b":null,"c":[true,false,-0.5e-3]}],"d":{}},"timestamp":30,"start":[0,0],)"
      R"("finish":[1,1],"tags":[]})");
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->order.order_id, 5);
  EXPECT_EQ(order->order.finish, (geo::Point{1.0, 1.0}));

  // Unknown keys inside stops and assignments are skipped as well.
  const auto response = decode_response(
      R"({"v":1,"event":"frame_response","frame":2,"timestamp":120,"server":"x",)"
      R"("assignments":[{"driver_id":3,"order_ids":[4],"start":[0,0],"rank":1,)"
      R"("route":[{"order_id":4,"pickup":true,"point":[1,1],"eta":9}],"pick_up_eta":60}]})");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->assignments.size(), 1u);
  EXPECT_EQ(response->assignments[0].order_ids, std::vector<api::OrderId>{4});
}

TEST(ServiceApi, DuplicateKeysAreRejected) {
  const char* bad[] = {
      R"({"v":1,"event":"order","order_id":1,"order_id":2,"timestamp":0,"start":[0,0],)"
      R"("finish":[1,1]})",
      R"({"v":1,"v":1,"event":"end_frame","frame":0,"timestamp":0})",
      R"({"v":1,"event":"end_frame","event":"order","frame":0,"timestamp":0})",
      R"({"v":1,"event":"driver","driver_id":9,"location":[2,3],)"
      R"("route":[{"order_id":1,"pickup":true,"pickup":false,"point":[0,0]}]})",
  };
  for (const char* line : bad) {
    EXPECT_NE(decode_error(line).find("duplicate key"), std::string::npos) << line;
  }
  CodecError error;
  EXPECT_FALSE(decode_response(R"({"v":1,"event":"frame_response","frame":1,"frame":2,)"
                               R"("timestamp":0,"assignments":[]})",
                               &error));
  EXPECT_NE(error.message.find("duplicate key 'frame'"), std::string::npos) << error.message;
}

TEST(ServiceApi, NonRfc8259NumbersAreRejected) {
  const char* bad_tokens[] = {"inf",  "-inf", "nan", "NaN", "Infinity", "+1", ".5",
                              "1.",   "01",   "-01", "0x10", "1e",      "1e+", "-",
                              "1.5.2", "--1", "1e400", "-1e400", "1e-400", "0.5x"};
  for (const char* token : bad_tokens) {
    const std::string line = std::string(R"({"v":1,"event":"end_frame","frame":0,)") +
                             R"("timestamp":)" + token + "}";
    EXPECT_FALSE(decode_error(line).empty()) << line;
  }
  // The same rules hold inside points, id lists and skipped values.
  EXPECT_FALSE(decode_error(R"({"v":1,"event":"driver","driver_id":9,"location":[+2,3]})")
                   .empty());
  EXPECT_FALSE(decode_error(R"({"v":1,"event":"driver","driver_id":9,"location":[2,3],)"
                            R"("onboard":[01]})")
                   .empty());
  EXPECT_FALSE(decode_error(R"({"v":1,"event":"end_frame","frame":0,"timestamp":0,)"
                            R"("extra":[.5]})")
                   .empty());
  // Valid RFC 8259 spellings all decode.
  for (const char* token : {"0", "-0", "1E3", "1e+3", "2.5e-3", "-0.0", "123456.789"}) {
    const std::string line = std::string(R"({"v":1,"event":"end_frame","frame":0,)") +
                             R"("timestamp":)" + token + "}";
    EXPECT_TRUE(decode_event(line).has_value()) << line;
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzer: encoder output for random values, mutated.
// ---------------------------------------------------------------------------

class LineFuzzer {
 public:
  explicit LineFuzzer(std::uint64_t seed) : rng_(seed) {}

  /// A valid line: a random order, driver, barrier or response.
  std::string valid_line() {
    switch (below(4)) {
      case 0: return encode_event(api::RideEvent::make_order(order()));
      case 1: return encode_event(api::RideEvent::make_driver(driver()));
      case 2: return encode_event(api::RideEvent::make_end_frame(rng_(), number()));
      default: return encode_response(response());
    }
  }

  std::string mutate(std::string line) {
    const int edits = 1 + static_cast<int>(below(3));
    for (int e = 0; e < edits && !line.empty(); ++e) {
      const std::size_t at = below(line.size());
      switch (below(6)) {
        case 0:  // flip one byte, to a random byte or a JSON-significant one
          line[at] = below(2) == 0 ? static_cast<char>(rng_()) : significant();
          break;
        case 1:  // truncate
          line.resize(at);
          break;
        case 2:  // insert
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), significant());
          break;
        case 3:  // duplicate a `,"key":value` member in place
          line.insert(std::min(line.find(",\"", at), line.size()), member(line, at));
          break;
        case 4: {  // splice in a member of another line, often of another kind
          const std::string other = valid_line();
          line.insert(std::min(line.find(",\"", at), line.size()),
                      member(other, below(other.size())));
          break;
        }
        default: {  // insert a hostile token
          static const char* kTokens[] = {"inf", "nan", "-0", "1e999", "01", "9999999999999",
                                          "-2147483649", "[", "{}", "null", "\"x\""};
          line.insert(at, kTokens[below(std::size(kTokens))]);
          break;
        }
      }
    }
    return line;
  }

 private:
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  /// The first `,"key":value` member of `line` at or after `from`, cut
  /// at the next member or the closing brace; empty if there is none.
  static std::string member(const std::string& line, std::size_t from) {
    const std::size_t begin = line.find(",\"", from);
    if (begin == std::string::npos) return {};
    std::size_t end = line.find(",\"", begin + 1);
    if (end == std::string::npos) end = line.find_last_of('}');
    return end == std::string::npos || end <= begin ? std::string()
                                                    : line.substr(begin, end - begin);
  }

  char significant() {
    static constexpr char kChars[] = "{}[]:,\"\\-+.0123456789eE tfn\n";
    return kChars[below(sizeof kChars - 1)];
  }

  double number() {
    switch (below(6)) {
      case 0: return std::numeric_limits<double>::denorm_min();
      case 1: return -0.0;
      case 2: {
        const double value = std::bit_cast<double>(rng_());
        return std::isfinite(value) ? value : 1.0;
      }
      default: return std::uniform_real_distribution<double>(-1e5, 1e5)(rng_);
    }
  }

  api::OrderId id() { return static_cast<api::OrderId>(rng_()); }
  geo::Point point() { return {number(), number()}; }

  std::vector<api::DriverStop> stops() {
    std::vector<api::DriverStop> route(below(4));
    for (api::DriverStop& stop : route) stop = {id(), below(2) == 0, point()};
    return route;
  }

  api::Order order() {
    api::Order out;
    out.order_id = id();
    out.timestamp = number();
    out.start = point();
    out.finish = point();
    out.seats = static_cast<int>(below(4)) + 1;
    out.reward_units = number();
    return out;
  }

  api::Driver driver() {
    api::Driver out;
    out.driver_id = id();
    out.location = point();
    out.seats = static_cast<int>(below(6));
    out.seats_in_use = static_cast<int>(below(3));
    out.onboard.resize(below(3));
    for (api::OrderId& onboard : out.onboard) onboard = id();
    out.route = stops();
    for (const api::DriverStop& stop : out.route) out.route_seats.emplace_back(stop.order_id, 1);
    return out;
  }

  api::FrameResponse response() {
    api::FrameResponse out;
    out.frame = rng_();
    out.timestamp = number();
    out.assignments.resize(below(3));
    for (api::Assignment& assignment : out.assignments) {
      assignment.driver_id = id();
      assignment.order_ids = {id()};
      assignment.start = point();
      assignment.route = stops();
      assignment.pick_up_eta = number();
    }
    return out;
  }

  std::mt19937_64 rng_;
};

TEST(ServiceCodecFuzz, MutatedLinesDecodeOrFailWithAMessage) {
  LineFuzzer fuzzer(20170605);
  std::size_t accepted = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    const std::string line = fuzzer.mutate(fuzzer.valid_line());
    CodecError event_error;
    if (const auto event = decode_event(line, &event_error)) {
      ++accepted;
      EXPECT_TRUE(event_error.message.empty()) << line;
      const auto again = decode_event(encode_event(*event));
      ASSERT_TRUE(again.has_value()) << line;
      EXPECT_EQ(*again, *event) << line;
    } else {
      EXPECT_FALSE(event_error.message.empty()) << line;
    }
    CodecError response_error;
    if (const auto response = decode_response(line, &response_error)) {
      ++accepted;
      const auto again = decode_response(encode_response(*response));
      ASSERT_TRUE(again.has_value()) << line;
      EXPECT_EQ(*again, *response) << line;
    } else {
      EXPECT_FALSE(response_error.message.empty()) << line;
    }
  }
  // Enough mutations survive (a flipped digit, an inserted space) for the
  // round-trip half to check something.
  EXPECT_GT(accepted, 500u);
}

}  // namespace
}  // namespace o2o::service
