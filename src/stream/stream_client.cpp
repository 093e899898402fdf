#include "stream/stream_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "persist/snapshot.h"

namespace tiresias {

RecordSourceFactory replayRecords(std::vector<Record> records) {
  auto shared = std::make_shared<const std::vector<Record>>(std::move(records));
  return [shared] { return std::make_unique<VectorSource>(*shared); };
}

long long StreamClient::backoffDelayMs(long long backoffMs, long long attempt,
                                       std::mt19937_64& rng) {
  // The doubling stops after ten steps, and the first delay is clamped
  // first, so no input can overflow the shift.
  const long long shift = std::clamp(attempt - 1, 0LL, 10LL);
  const long long first = std::clamp(backoffMs, 0LL, kMaxBackoffMs);
  const long long base = std::min(first << shift, kMaxBackoffMs);
  std::uniform_int_distribution<long long> jitter(base / 2, base);
  return jitter(rng);
}

std::vector<std::string> StreamClient::pathTable(const Hierarchy& h) {
  std::vector<std::string> paths;
  paths.reserve(h.size());
  for (std::size_t n = 0; n < h.size(); ++n) {
    paths.push_back(h.path(static_cast<NodeId>(n)));
  }
  return paths;
}

StreamClient::StreamClient(const Hierarchy& hierarchy,
                           StreamClientOptions options)
    : opt_(std::move(options)),
      hello_(encodeSocketHandshakeV2(pathTable(hierarchy), opt_.streamName,
                                     opt_.token)) {
  net::ignoreSigpipe();
}

SendStatus StreamClient::lost(std::string what) {
  conn_.close();
  error_ = std::move(what);
  return SendStatus::kTransient;
}

SendStatus StreamClient::open() {
  sent_ = 0;
  resumeSkipped_ = 0;
  reply_ = SocketResumeReply{};
  conn_ = net::connectTo(opt_.host, opt_.port, opt_.timeoutMs);
  if (!conn_.valid()) {
    return lost("cannot connect to " + opt_.host + ":" +
                std::to_string(opt_.port));
  }
  if (!conn_.writeAll(hello_.data(), hello_.size(), opt_.timeoutMs)) {
    // A server that refuses the stream replies right after the name and
    // closes with the table unread, which can reset a long table's write:
    // the fatal reply may already be here.
    if (!readSocketResumeReply(conn_, 0, reply_) ||
        reply_.status == kSocketResumeOk) {
      return lost("connection lost during handshake");
    }
  } else if (!readSocketResumeReply(conn_, opt_.timeoutMs, reply_)) {
    return lost("no resume reply from server");
  }
  if (reply_.status == kSocketResumeOk) return SendStatus::kOk;
  if (reply_.status == kSocketResumeUnknownStream) {
    conn_.close();
    error_ = "server does not serve a stream named '" + opt_.streamName + "'";
    return SendStatus::kUnknownStream;
  }
  if (reply_.status == kSocketResumeStreamEnded) {
    conn_.close();
    error_ = opt_.streamName.empty()
                 ? "every anonymous stream has already ended on the server"
                 : "stream '" + opt_.streamName +
                       "' has already ended on the server";
    return SendStatus::kStreamEnded;
  }
  return lost("unexpected resume reply status " +
              std::to_string(reply_.status));
}

SendStatus StreamClient::push(RecordSource& source) {
  const Timestamp committed = reply_.committedTime;
  try {
    while (source.nextBatch(batch_, opt_.frameRecords) > 0) {
      keep_.clear();
      for (const Record& r : batch_) {
        if (r.time < committed) {
          ++resumeSkipped_;
        } else {
          keep_.push_back(r);
        }
      }
      if (keep_.empty()) continue;
      wire_.clear();
      appendSocketFrame(wire_, keep_.data(), keep_.size());
      if (!conn_.writeAll(wire_.data(), wire_.size(), opt_.timeoutMs)) {
        return lost("connection lost after " + std::to_string(sent_) +
                    " records");
      }
      sent_ += keep_.size();
    }
  } catch (const persist::SnapshotError& e) {
    conn_.close();
    error_ = e.what();
    return SendStatus::kBadTrace;
  }
  traceSkipped_ = source.skippedRecords();
  return SendStatus::kOk;
}

SendStatus StreamClient::finish() {
  wire_.clear();
  appendSocketEndOfStream(wire_);
  if (!conn_.writeAll(wire_.data(), wire_.size(), opt_.timeoutMs)) {
    return lost("connection lost at end of stream");
  }
  conn_.shutdownWrite();
  return SendStatus::kOk;
}

SendStatus StreamClient::send(
    const RecordSourceFactory& trace,
    const std::function<void(const std::string&)>& note) {
  std::mt19937_64 jitter(opt_.token);
  for (long long attempt = 1;; ++attempt) {
    if (attempt > 1) {
      const long long retry = attempt - 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoffDelayMs(opt_.backoffMs, retry, jitter)));
      if (note) {
        note(error_ + "; retrying (" + std::to_string(retry) + "/" +
             std::to_string(opt_.retries) + ")");
      }
    }
    const std::unique_ptr<RecordSource> source = trace();
    if (!source) {
      error_.clear();
      return SendStatus::kBadTrace;
    }
    SendStatus st = open();
    if (st == SendStatus::kOk) {
      if (note && attempt > 1 && reply_.committedTime != kSocketNoCommit) {
        note("resuming '" + opt_.streamName + "' from t=" +
             std::to_string(reply_.committedTime));
      }
      st = push(*source);
      if (st == SendStatus::kOk) st = finish();
    }
    if (st != SendStatus::kTransient || attempt > opt_.retries) return st;
  }
}

}  // namespace tiresias
