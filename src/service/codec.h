// Wire codecs for the o2o::api frame contract: one JSON object per line
// (ndjson). Every line carries the API major version in "v"; decoding
// rejects lines from a different major version with a typed error.
//
// Doubles are written as the shortest text that round-trips
// (std::to_chars) and read back with std::from_chars, so the byte stream
// is deterministic for a given frame and decodes to bit-identical values,
// which is what lets the streamed replay reproduce the batch simulator
// bit for bit. Non-finite doubles have no JSON spelling and do not decode.
//
// The decoder reads a line in one forward pass, straight into the api
// structs, with no intermediate DOM. Its grammar is strict JSON (RFC
// 8259): keys may come in any order, whitespace is space, tab, CR or LF,
// and number tokens follow the RFC (no "inf", "nan", "+1", ".5", "1.",
// "01" or "0x10"; doubles out of binary64 range are rejected). Ids are
// strict decimal integers in range. Keys outside the schema are skipped
// (nesting is capped at 16 levels); a schema key that appears twice in
// one object is an error. A schema key has one type in every event kind:
// keys of another kind are type-checked, then dropped.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/api.h"

namespace o2o::service {

/// What went wrong decoding a line (empty message means success).
struct CodecError {
  std::string message;

  explicit operator bool() const noexcept { return !message.empty(); }
};

/// One event -> one JSON line (no trailing newline).
std::string encode_event(const api::RideEvent& event);

/// One complete frame -> its event lines: every order, every driver,
/// then the end_frame barrier. Concatenating these (newline-separated)
/// is the canonical ndjson encoding of the frame.
std::vector<std::string> encode_frame_events(const api::FrameRequest& request);

/// One response -> one JSON line (no trailing newline).
std::string encode_response(const api::FrameResponse& response);

/// Parses one event line. Returns nullopt and fills `error` on malformed
/// JSON, unknown event kind, missing fields, or a major-version mismatch.
std::optional<api::RideEvent> decode_event(std::string_view line, CodecError* error = nullptr);

/// Parses one frame_response line (same error contract as decode_event).
std::optional<api::FrameResponse> decode_response(std::string_view line,
                                                  CodecError* error = nullptr);

}  // namespace o2o::service
