#include "service/codec.h"

#include <bit>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "obs/obs.h"

namespace o2o::service {

namespace {

// ---------------------------------------------------------------------------
// Encoding: every line is appended into one buffer reserved up front.
// ---------------------------------------------------------------------------

/// Shortest round-trip text for doubles, plain decimal for integers.
template <typename T>
void append_number(std::string& out, T value) {
  char buffer[32];  // fits any shortest binary64 and any 64-bit integer
  out.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

void append_point(std::string& out, const geo::Point& point) {
  out += '[';
  append_number(out, point.x);
  out += ',';
  append_number(out, point.y);
  out += ']';
}

void append_stops(std::string& out, const std::vector<api::DriverStop>& stops) {
  out += '[';
  for (std::size_t i = 0; i < stops.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"order_id\":";
    append_number(out, stops[i].order_id);
    out += stops[i].is_pickup ? ",\"pickup\":true,\"point\":" : ",\"pickup\":false,\"point\":";
    append_point(out, stops[i].point);
    out += '}';
  }
  out += ']';
}

void append_id_list(std::string& out, const std::vector<std::int32_t>& ids) {
  out += '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ',';
    append_number(out, ids[i]);
  }
  out += ']';
}

/// A JSON string. Control characters without a short escape (which the
/// decoder does not read) become spaces.
void append_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
  }
  out += '"';
}

/// Reserves `bytes` and writes `{"v":MAJOR,"event":"EVENT"`.
std::string begin_line(std::string_view event, std::size_t bytes) {
  std::string out;
  out.reserve(bytes);
  out += "{\"v\":";
  append_number(out, api::kApiVersionMajor);
  out += ",\"event\":\"";
  out += event;
  out += '"';
  return out;
}

// Upper estimates of encoded sizes, so a line is written without regrowth.
constexpr std::size_t kLineBytes = 256;
constexpr std::size_t kIdBytes = 12;
constexpr std::size_t kStopBytes = 96;

std::string encode_order(const api::Order& order) {
  std::string out = begin_line("order", kLineBytes);
  out += ",\"order_id\":";
  append_number(out, order.order_id);
  out += ",\"timestamp\":";
  append_number(out, order.timestamp);
  out += ",\"start\":";
  append_point(out, order.start);
  out += ",\"finish\":";
  append_point(out, order.finish);
  out += ",\"seats\":";
  append_number(out, order.seats);
  out += ",\"reward_units\":";
  append_number(out, order.reward_units);
  out += '}';
  return out;
}

std::string encode_driver(const api::Driver& driver) {
  const std::size_t ids = driver.onboard.size() + 2 * driver.route_seats.size();
  std::string out =
      begin_line("driver", kLineBytes + kIdBytes * ids + kStopBytes * driver.route.size());
  out += ",\"driver_id\":";
  append_number(out, driver.driver_id);
  out += ",\"location\":";
  append_point(out, driver.location);
  out += ",\"seats\":";
  append_number(out, driver.seats);
  out += ",\"seats_in_use\":";
  append_number(out, driver.seats_in_use);
  out += ",\"onboard\":";
  append_id_list(out, driver.onboard);
  out += ",\"route\":";
  append_stops(out, driver.route);
  out += ",\"route_seats\":[";
  for (std::size_t i = 0; i < driver.route_seats.size(); ++i) {
    if (i != 0) out += ',';
    out += '[';
    append_number(out, driver.route_seats[i].first);
    out += ',';
    append_number(out, driver.route_seats[i].second);
    out += ']';
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Decoding: one forward pass over the line, straight into the api structs.
// No DOM, and no allocation beyond the structs' own vectors.
// ---------------------------------------------------------------------------

std::string field_error(std::string_view key, std::string_view expected) {
  std::string message = "field '";
  message += key;
  message += "': expected ";
  message += expected;
  return message;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// A cursor over one line. Every read returns false on failure. The first
/// message recorded wins; a read that fails without one leaves its caller
/// to name the failure.
class Reader {
 public:
  explicit Reader(std::string_view line) : at_(line.data()), end_(line.data() + line.size()) {}

  const std::string& error() const { return error_; }

  bool fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
    return false;
  }

  char peek() {
    while (at_ != end_ && (*at_ == ' ' || *at_ == '\t' || *at_ == '\n' || *at_ == '\r')) ++at_;
    return at_ == end_ ? '\0' : *at_;
  }

  bool eat(char c) {
    if (peek() != c) return false;
    ++at_;
    return true;
  }

  bool expect(char c, const char* message) { return eat(c) || fail(message); }

  bool literal(std::string_view word) {
    peek();
    if (static_cast<std::size_t>(end_ - at_) < word.size() ||
        std::string_view(at_, word.size()) != word) {
      return false;
    }
    at_ += word.size();
    return true;
  }

  /// The raw bytes between the quotes. Escapes are checked, not decoded:
  /// no schema key or event name contains an escapable character.
  bool read_string(std::string_view& raw) {
    if (!eat('"')) return fail("expected a string");
    const char* begin = at_;
    while (at_ != end_) {
      const char c = *at_++;
      if (c == '"') {
        raw = std::string_view(begin, static_cast<std::size_t>(at_ - 1 - begin));
        return true;
      }
      if (c != '\\') continue;
      if (at_ == end_) break;
      switch (*at_++) {
        case '"': case '\\': case '/': case 'n': case 't': case 'r': break;
        default: return fail("unsupported escape sequence");
      }
    }
    return fail("unterminated string");
  }

  /// One RFC 8259 number token, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// ending at whitespace or a delimiter. Fails without a message.
  bool number_token(std::string_view& token) {
    peek();
    const char* p = at_;
    const auto digits = [&p, this] {
      if (p == end_ || !is_digit(*p)) return false;
      while (p != end_ && is_digit(*p)) ++p;
      return true;
    };
    if (p != end_ && *p == '-') ++p;
    if (p != end_ && *p == '0') {
      ++p;
    } else if (!digits()) {
      return false;
    }
    if (p != end_ && *p == '.') {
      ++p;
      if (!digits()) return false;
    }
    if (p != end_ && (*p == 'e' || *p == 'E')) {
      if (++p != end_ && (*p == '+' || *p == '-')) ++p;
      if (!digits()) return false;
    }
    if (p != end_ && *p != ',' && *p != ']' && *p != '}' && *p != ' ' && *p != '\t' &&
        *p != '\n' && *p != '\r') {
      return false;
    }
    token = std::string_view(at_, static_cast<std::size_t>(p - at_));
    at_ = p;
    return true;
  }

  bool read_double(double& out, std::string_view key) {
    std::string_view token;
    if (!number_token(token)) return fail(field_error(key, "a number"));
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
    if (ec != std::errc{} || end != token.data() + token.size()) {
      return fail(
          field_error(key, "a number in double range, got '" + std::string(token) + "'"));
    }
    return true;
  }

  /// Strict decimal: "1.9" must not truncate to 1, nor may an out-of-range
  /// id wrap into a different valid id.
  template <typename T>
  bool read_integer(T& out, std::string_view key) {
    constexpr const char* kExpected =
        std::is_signed_v<T> ? "a 32-bit integer" : "an unsigned 64-bit integer";
    std::string_view token;
    if (!number_token(token)) return fail(field_error(key, kExpected));
    const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
    if (ec != std::errc{} || end != token.data() + token.size()) {
      return fail(
          field_error(key, std::string(kExpected) + ", got '" + std::string(token) + "'"));
    }
    return true;
  }

  bool read_point(geo::Point& out, std::string_view key) {
    return (eat('[') && read_double(out.x, key) && eat(',') && read_double(out.y, key) &&
            eat(']')) ||
           fail(field_error(key, "[x, y]"));
  }

  /// '[' item (',' item)* ']' or '[]'. Fails without a message when the
  /// next value is not an array.
  template <typename Item>
  bool read_array(Item&& item) {
    if (!enter('[')) return false;
    if (!eat(']')) {
      do {
        if (!item()) return false;
      } while (eat(','));
      if (!expect(']', "expected ',' or ']' in array")) return false;
    }
    --depth_;
    return true;
  }

  /// '{' key ':' value (',' ...)* '}' or '{}'; `member(key)` reads each
  /// value. Fails without a message when the next value is not an object.
  template <typename Member>
  bool read_object(Member&& member) {
    if (!enter('{')) return false;
    if (!eat('}')) {
      do {
        std::string_view key;
        if (!read_string(key) || !expect(':', "expected ':' after an object key") ||
            !member(key)) {
          return false;
        }
      } while (eat(','));
      if (!expect('}', "expected ',' or '}' in object")) return false;
    }
    --depth_;
    return true;
  }

  /// An object against a fixed schema: `field(i)` reads the value of key
  /// names[i], other keys are skipped, and a repeated schema key fails.
  /// `seen` gets bit i for every names[i] present.
  template <std::size_t N, typename Field>
  bool read_fields(const std::string_view (&names)[N], std::uint32_t& seen, Field&& field) {
    static_assert(N <= 32);
    seen = 0;
    return read_object([&](std::string_view key) {
      std::size_t i = 0;
      while (i < N && names[i] != key) ++i;
      if (i == N) return skip_value();
      if ((seen >> i & 1U) != 0) return fail("duplicate key '" + std::string(key) + "'");
      seen |= 1U << i;
      return field(i);
    });
  }

  /// Fails naming the first key of the `required` mask missing from `seen`.
  template <std::size_t N>
  bool require(std::uint32_t seen, std::uint32_t required,
               const std::string_view (&names)[N]) {
    const std::uint32_t missing = required & ~seen;
    return missing == 0 ||
           fail("missing field '" + std::string(names[std::countr_zero(missing)]) + "'");
  }

  bool skip_value() {
    std::string_view ignored;
    switch (peek()) {
      case '"': return read_string(ignored);
      case '[': return read_array([this] { return skip_value(); });
      case '{': return read_object([this](std::string_view) { return skip_value(); });
      case 't': return literal("true") || fail("expected 'true'");
      case 'f': return literal("false") || fail("expected 'false'");
      case 'n': return literal("null") || fail("expected 'null'");
      default:
        if (at_ == end_) return fail("unexpected end of input");
        return number_token(ignored) || fail("malformed number or value");
    }
  }

  /// The whole line must be one object, read with read_fields, and
  /// nothing after it.
  template <std::size_t N, typename Field>
  bool read_line(const std::string_view (&names)[N], std::uint32_t& seen, Field&& field) {
    if (peek() != '{') {
      // Still parse it, so a syntax error such as over-deep nesting is
      // named as one.
      if (skip_value()) fail("a line must be one JSON object");
      return false;
    }
    return read_fields(names, seen, field) &&
           (at_end() || fail("trailing characters after JSON value"));
  }

 private:
  // The schema nests at most 5 deep; the cap bounds skip_value's recursion
  // on a hostile '[[[[...' line.
  static constexpr int kMaxDepth = 16;

  bool enter(char open) {
    if (!eat(open)) return false;
    return ++depth_ <= kMaxDepth || fail("nesting too deep");
  }

  bool at_end() { return peek() == '\0' && at_ == end_; }

  const char* at_;
  const char* end_;
  int depth_ = 0;
  std::string error_;
};

bool read_version(Reader& in) {
  std::int32_t major = 0;
  if (!in.read_integer(major, "v")) return false;
  return major == api::kApiVersionMajor ||
         in.fail("unsupported API major version " + std::to_string(major) +
                 " (this build speaks " + std::to_string(api::kApiVersionMajor) + ")");
}

bool read_ids(Reader& in, std::vector<std::int32_t>& out, std::string_view key) {
  out.clear();
  return in.read_array([&] { return in.read_integer(out.emplace_back(), key); }) ||
         in.fail(field_error(key, "an array of ids"));
}

constexpr std::string_view kStopFields[] = {"order_id", "pickup", "point"};

bool read_stops(Reader& in, std::vector<api::DriverStop>& out, std::string_view key) {
  out.clear();
  return in.read_array([&] {
    api::DriverStop& stop = out.emplace_back();
    std::uint32_t seen = 0;
    return (in.read_fields(kStopFields, seen,
                           [&](std::size_t field) {
                             switch (field) {
                               case 0: return in.read_integer(stop.order_id, kStopFields[0]);
                               case 1:
                                 stop.is_pickup = in.literal("true");
                                 return stop.is_pickup || in.literal("false") ||
                                        in.fail(field_error(kStopFields[1], "a boolean"));
                               default: return in.read_point(stop.point, kStopFields[2]);
                             }
                           }) ||
            in.fail(field_error(key, "an array of stop objects"))) &&
           in.require(seen, 0b111, kStopFields);
  }) || in.fail(field_error(key, "an array of stop objects"));
}

bool read_route_seats(Reader& in, std::vector<std::pair<api::OrderId, int>>& out) {
  out.clear();
  const auto pair = [&] {
    auto& [order_id, seats] = out.emplace_back();
    return (in.eat('[') && in.read_integer(order_id, "route_seats") && in.eat(',') &&
            in.read_integer(seats, "route_seats") && in.eat(']')) ||
           in.fail(field_error("route_seats", "[order_id, seats] pairs"));
  };
  return in.read_array(pair) || in.fail(field_error("route_seats", "an array"));
}

// Every key an event line may carry. A key has one type in every event
// kind; keys of another kind are decoded, then dropped.
constexpr std::string_view kEventFields[] = {
    "v",         "event",    "order_id", "timestamp",    "start",   "finish", "seats",
    "reward_units", "driver_id", "location", "seats_in_use", "onboard", "route",
    "route_seats", "frame"};
enum EventField : std::uint32_t {
  kV, kEvent, kOrderId, kTimestamp, kStart, kFinish, kSeats, kRewardUnits,
  kDriverId, kLocation, kSeatsInUse, kOnboard, kRoute, kRouteSeats, kFrame,
};
constexpr std::uint32_t bits(std::initializer_list<EventField> fields) {
  std::uint32_t mask = 0;
  for (const EventField field : fields) mask |= 1U << field;
  return mask;
}

constexpr std::string_view kResponseFields[] = {"v", "event", "frame", "timestamp",
                                                "assignments", "reason"};
/// Required keys of a frame_response line and of a frame_rejected line.
constexpr std::uint32_t kResponseRequired = 0b011111;
constexpr std::uint32_t kRejectedRequired = 0b100111;

/// Decodes the escapes read_string accepts.
std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\' || i + 1 == raw.size()) {
      out += raw[i];
      continue;
    }
    switch (raw[++i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      default: out += raw[i];
    }
  }
  return out;
}
constexpr std::string_view kAssignmentFields[] = {"driver_id", "order_ids", "start", "route",
                                                  "pick_up_eta"};

bool read_assignment(Reader& in, api::Assignment& out) {
  std::uint32_t seen = 0;
  return (in.read_fields(kAssignmentFields, seen,
                         [&](std::size_t field) {
                           const std::string_view key = kAssignmentFields[field];
                           switch (field) {
                             case 0: return in.read_integer(out.driver_id, key);
                             case 1: return read_ids(in, out.order_ids, key);
                             case 2: return in.read_point(out.start, key);
                             case 3: return read_stops(in, out.route, key);
                             default: return in.read_double(out.pick_up_eta, key);
                           }
                         }) ||
          in.fail(field_error("assignments", "an array of objects"))) &&
         in.require(seen, 0b11111, kAssignmentFields);
}

/// Hands a failed decode's message to the caller. An empty CodecError
/// means success, so a failure always carries some message.
std::nullopt_t report(const Reader& in, CodecError* error) {
  if (error != nullptr) error->message = in.error().empty() ? "malformed line" : in.error();
  return std::nullopt;
}

/// Resets `driver` to a default api::Driver whose vectors keep their
/// capacity.
void reset_keeping_capacity(api::Driver& driver) {
  api::Driver fresh;
  fresh.onboard = std::move(driver.onboard);
  fresh.route = std::move(driver.route);
  fresh.route_seats = std::move(driver.route_seats);
  fresh.onboard.clear();
  fresh.route.clear();
  fresh.route_seats.clear();
  driver = std::move(fresh);
}

}  // namespace

std::string encode_event(const api::RideEvent& event) {
  obs::StageTimer timer(obs::Stage::kCodec);
  switch (event.kind) {
    case api::RideEvent::Kind::kOrder:
      return encode_order(event.order);
    case api::RideEvent::Kind::kDriver:
      return encode_driver(event.driver);
    case api::RideEvent::Kind::kEndFrame: {
      std::string out = begin_line("end_frame", kLineBytes);
      out += ",\"frame\":";
      append_number(out, event.frame);
      out += ",\"timestamp\":";
      append_number(out, event.timestamp);
      out += '}';
      return out;
    }
  }
  return {};
}

std::vector<std::string> encode_frame_events(const api::FrameRequest& request) {
  std::vector<std::string> lines;
  lines.reserve(request.orders.size() + request.drivers.size() + 1);
  for (const api::Order& order : request.orders) {
    lines.push_back(encode_event(api::RideEvent::make_order(order)));
  }
  for (const api::Driver& driver : request.drivers) {
    lines.push_back(encode_event(api::RideEvent::make_driver(driver)));
  }
  lines.push_back(
      encode_event(api::RideEvent::make_end_frame(request.frame, request.timestamp)));
  return lines;
}

std::string encode_response(const api::FrameResponse& response) {
  obs::StageTimer timer(obs::Stage::kCodec);
  if (!response.reject_reason.empty()) {
    std::string out =
        begin_line("frame_rejected", kLineBytes + 2 * response.reject_reason.size());
    out += ",\"frame\":";
    append_number(out, response.frame);
    out += ",\"reason\":";
    append_string(out, response.reject_reason);
    out += '}';
    return out;
  }
  std::size_t bytes = kLineBytes;
  for (const api::Assignment& assignment : response.assignments) {
    bytes += kLineBytes + kIdBytes * assignment.order_ids.size() +
             kStopBytes * assignment.route.size();
  }
  std::string out = begin_line("frame_response", bytes);
  out += ",\"frame\":";
  append_number(out, response.frame);
  out += ",\"timestamp\":";
  append_number(out, response.timestamp);
  out += ",\"assignments\":[";
  for (std::size_t i = 0; i < response.assignments.size(); ++i) {
    const api::Assignment& assignment = response.assignments[i];
    if (i != 0) out += ',';
    out += "{\"driver_id\":";
    append_number(out, assignment.driver_id);
    out += ",\"order_ids\":";
    append_id_list(out, assignment.order_ids);
    out += ",\"start\":";
    append_point(out, assignment.start);
    out += ",\"route\":";
    append_stops(out, assignment.route);
    out += ",\"pick_up_eta\":";
    append_number(out, assignment.pick_up_eta);
    out += '}';
  }
  out += "]}";
  return out;
}

bool decode_event_into(std::string_view line, api::RideEvent& event, CodecError* error) {
  obs::StageTimer timer(obs::Stage::kCodec);
  using Kind = api::RideEvent::Kind;
  Reader in(line);
  event.kind = Kind::kEndFrame;
  event.order = {};
  reset_keeping_capacity(event.driver);
  event.frame = 0;
  event.timestamp = 0.0;
  std::optional<Kind> kind;
  double timestamp = 0.0;
  std::optional<int> seats;
  std::uint32_t seen = 0;
  const auto field = [&](std::size_t index) {
    const std::string_view key = kEventFields[index];
    api::Order& order = event.order;
    api::Driver& driver = event.driver;
    switch (static_cast<EventField>(index)) {
      case kV: return read_version(in);
      case kEvent: {
        std::string_view name;
        if (!in.read_string(name)) return in.fail(field_error(key, "a string"));
        if (name == "order") kind = Kind::kOrder;
        if (name == "driver") kind = Kind::kDriver;
        if (name == "end_frame") kind = Kind::kEndFrame;
        return kind.has_value() ||
               in.fail("unknown event kind '" + std::string(name) + "'");
      }
      case kOrderId: return in.read_integer(order.order_id, key);
      case kTimestamp: return in.read_double(timestamp, key);
      case kStart: return in.read_point(order.start, key);
      case kFinish: return in.read_point(order.finish, key);
      case kSeats: return in.read_integer(seats.emplace(), key);
      case kRewardUnits: return in.read_double(order.reward_units, key);
      case kDriverId: return in.read_integer(driver.driver_id, key);
      case kLocation: return in.read_point(driver.location, key);
      case kSeatsInUse: return in.read_integer(driver.seats_in_use, key);
      case kOnboard: return read_ids(in, driver.onboard, key);
      case kRoute: return read_stops(in, driver.route, key);
      case kRouteSeats: return read_route_seats(in, driver.route_seats);
      case kFrame: return in.read_integer(event.frame, key);
    }
    return false;
  };
  bool ok = in.read_line(kEventFields, seen, field) &&
            in.require(seen, bits({kV, kEvent}), kEventFields);
  if (ok) {
    // Optional fields keep the struct's default when absent, so a
    // hand-written client can send a minimal order or driver. Keys of
    // another kind were read into the event; drop them. The driver is
    // still at its default unless the line carried a driver key.
    constexpr std::uint32_t kDriverKeys =
        bits({kDriverId, kLocation, kSeatsInUse, kOnboard, kRoute, kRouteSeats});
    event.kind = *kind;
    switch (*kind) {
      case Kind::kOrder:
        ok = in.require(seen, bits({kOrderId, kTimestamp, kStart, kFinish}), kEventFields);
        event.order.timestamp = timestamp;
        if (seats) event.order.seats = *seats;
        if ((seen & kDriverKeys) != 0) reset_keeping_capacity(event.driver);
        event.frame = 0;
        break;
      case Kind::kDriver:
        ok = in.require(seen, bits({kDriverId, kLocation}), kEventFields);
        if (seats) event.driver.seats = *seats;
        event.order = {};
        event.frame = 0;
        break;
      case Kind::kEndFrame:
        ok = in.require(seen, bits({kFrame, kTimestamp}), kEventFields);
        event.timestamp = timestamp;
        event.order = {};
        if ((seen & kDriverKeys) != 0) reset_keeping_capacity(event.driver);
        break;
    }
  }
  if (!ok) {
    report(in, error);
    return false;
  }
  return true;
}

std::optional<api::RideEvent> decode_event(std::string_view line, CodecError* error) {
  api::RideEvent event;
  if (!decode_event_into(line, event, error)) return std::nullopt;
  return event;
}

std::optional<api::FrameResponse> decode_response(std::string_view line,
                                                  CodecError* error) {
  obs::StageTimer timer(obs::Stage::kCodec);
  Reader in(line);
  api::FrameResponse response;
  bool rejected = false;
  std::string_view reason;
  std::uint32_t seen = 0;
  const auto field = [&](std::size_t index) {
    const std::string_view key = kResponseFields[index];
    switch (index) {
      case 0: return read_version(in);
      case 1: {
        std::string_view name;
        if (in.read_string(name) && (name == "frame_response" || name == "frame_rejected")) {
          rejected = name == "frame_rejected";
          return true;
        }
        return in.fail("expected event kind 'frame_response' or 'frame_rejected'");
      }
      case 2: return in.read_integer(response.frame, key);
      case 3: return in.read_double(response.timestamp, key);
      case 4:
        return in.read_array([&] {
          return read_assignment(in, response.assignments.emplace_back());
        }) || in.fail(field_error(key, "an array of objects"));
      default:
        return in.read_string(reason) || in.fail(field_error(key, "a string"));
    }
  };
  if (!in.read_line(kResponseFields, seen, field) ||
      !in.require(seen, rejected ? kRejectedRequired : kResponseRequired, kResponseFields)) {
    return report(in, error);
  }
  // Keys of the other kind are decoded, then dropped.
  if (rejected) {
    if (reason.empty()) {
      in.fail(field_error("reason", "a non-empty string"));
      return report(in, error);
    }
    response.timestamp = 0.0;
    response.assignments.clear();
    response.reject_reason = unescape(reason);
  }
  return response;
}

}  // namespace o2o::service
