#include "mem/dram_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::mem {

DramChannel::DramChannel(sim::EventQueue &events, const DramConfig &config,
                         sim::Tick frontend_latency)
    : events_(events), config_(config),
      frontend_latency_(frontend_latency),
      pick_lane_(events.addLane(
          [](void *self, std::uint64_t) {
              static_cast<DramChannel *>(self)->pick();
          },
          this)),
      complete_lane_(events.addLane(
          [](void *self, std::uint64_t callback) {
              static_cast<DramChannel *>(self)->complete(
                  static_cast<std::uint32_t>(callback));
          },
          this)),
      hop_lane_(events.addLane(
          [](void *self, std::uint64_t callback) {
              static_cast<DramChannel *>(self)->returnHop(
                  static_cast<std::uint32_t>(callback));
          },
          this)),
      banks_(static_cast<std::size_t>(config.totalBanks())),
      ranks_(static_cast<std::size_t>(config.ranks))
{
    tt_assert(config_.ranks >= 1 && config_.banks_per_rank >= 1,
              "channel needs at least one bank");
    tt_assert(config_.row_bytes % kLineBytes == 0,
              "row size must be a whole number of lines");
    // Rank refreshes are staggered: rank r refreshes during
    // [offset_r + k*tREFI, offset_r + k*tREFI + tRFC) for k >= 1
    // (the first refresh falls one full interval after start-up).
    for (int r = 0; r < config_.ranks; ++r) {
        Rank &rank = ranks_[static_cast<std::size_t>(r)];
        rank.refresh_offset = static_cast<sim::Tick>(r) * config_.t_refi /
                              static_cast<sim::Tick>(config_.ranks);
        rank.refresh_window = rank.refresh_offset + config_.t_refi;
        rank.refresh_next_end = rank.refresh_window + config_.t_rfc;
    }
}

void
DramChannel::mapAddress(std::uint64_t line_addr, int &bank,
                        std::uint64_t &row) const
{
    const std::uint64_t lines_per_row = config_.linesPerRow();
    const auto total_banks =
        static_cast<std::uint64_t>(config_.totalBanks());
    if (config_.mapping == AddressMapping::kPageInterleave) {
        // A stream walks one full row buffer, then continues in the
        // next bank: long row-hit runs, banks covered over time.
        const std::uint64_t row_index = line_addr / lines_per_row;
        bank = static_cast<int>(row_index % total_banks);
        row = row_index / total_banks;
    } else {
        // Consecutive lines round-robin the banks; the row advances
        // once per full sweep of a row's worth of lines in each bank.
        bank = static_cast<int>(line_addr % total_banks);
        const std::uint64_t stripe = line_addr / total_banks;
        row = stripe / lines_per_row;
    }
}

void
DramChannel::submit(DramRequest request)
{
    Pending pending;
    pending.arrival = events_.now();
    pending.is_write = request.is_write;
    mapAddress(request.line_addr, pending.bank, pending.row);
    pending.callback = callbacks_.put(std::move(request.on_complete));
    queue_.push_back(pending);
    ++in_flight_;
    maybeSchedulePick();
}

void
DramChannel::maybeSchedulePick()
{
    if (pick_scheduled_ || queue_.empty())
        return;
    pick_scheduled_ = true;
    const sim::Tick when = std::max(events_.now(), bus_free_);
    events_.scheduleLane(pick_lane_, when, 0);
}

sim::Tick
DramChannel::prepLatency(const Bank &bank, std::uint64_t row) const
{
    if (!bank.row_open)
        return config_.t_rcd; // activate the row
    if (bank.open_row == row)
        return 0; // row hit
    // Precharge + activate; write recovery gates the precharge when
    // the bank's last column access was a write.
    const sim::Tick recovery = bank.last_was_write ? config_.t_wr : 0;
    return recovery + config_.t_rp + config_.t_rcd;
}

sim::Tick
DramChannel::refreshAdjust(int rank_index, sim::Tick t)
{
    if (config_.disable_refresh)
        return t;
    Rank &rank = ranks_[static_cast<std::size_t>(rank_index)];
    const sim::Tick period = config_.t_refi;
    if (t < rank.refresh_offset + period)
        return t; // before the first refresh
    // The last window starting at or before t; usually the one found
    // by the previous call, which saves the division.
    if (t < rank.refresh_window || t - rank.refresh_window >= period)
        rank.refresh_window =
            rank.refresh_offset +
            (t - rank.refresh_offset) / period * period;
    if (t < rank.refresh_window + config_.t_rfc) {
        ++stats_.refresh_stalls;
        return rank.refresh_window + config_.t_rfc;
    }
    return t;
}

void
DramChannel::applyRefreshToBanks(int rank_index, sim::Tick now)
{
    if (config_.disable_refresh)
        return;
    // If a refresh window for this rank completed since we last
    // looked, it precharged every row in the rank.
    Rank &rank = ranks_[static_cast<std::size_t>(rank_index)];
    if (now < rank.refresh_next_end)
        return;
    const sim::Tick period = config_.t_refi;
    const sim::Tick last_end =
        rank.refresh_next_end +
        (now - rank.refresh_next_end) / period * period;
    rank.refresh_next_end = last_end + period;
    const int first = rank_index * config_.banks_per_rank;
    for (int b = first; b < first + config_.banks_per_rank; ++b) {
        Bank &bank = banks_[static_cast<std::size_t>(b)];
        if (bank.ready < last_end) {
            bank.row_open = false;
            bank.hit_streak = 0;
        }
    }
}

void
DramChannel::pick()
{
    pick_scheduled_ = false;
    if (queue_.empty())
        return;

    const sim::Tick now = events_.now();
    for (int r = 0; r < config_.ranks; ++r)
        applyRefreshToBanks(r, now);

    // FR-FCFS: oldest row hit first, capped so a hit streak cannot
    // starve the other requesters; otherwise oldest request.
    std::size_t best = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Pending &cand = queue_[i];
        const Bank &bank = banks_[static_cast<std::size_t>(cand.bank)];
        const bool is_hit =
            bank.row_open && bank.open_row == cand.row &&
            bank.ready <= now;
        if (is_hit && bank.hit_streak < config_.max_row_hit_streak) {
            best = i;
            break;
        }
    }

    const Pending chosen = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

    Bank &bank = banks_[static_cast<std::size_t>(chosen.bank)];
    const int rank_index = rankOf(chosen.bank);
    Rank &rank = ranks_[static_cast<std::size_t>(rank_index)];

    const sim::Tick prep = prepLatency(bank, chosen.row);
    const bool activates = prep != 0;
    sim::Tick cmd_ready = std::max(now, bank.ready);
    if (activates) {
        // Activation pacing: tRRD from the rank's last ACT, tFAW
        // over its last four ACTs (both only once real activations
        // populate the history).
        if (rank.act_count >= 1)
            cmd_ready =
                std::max(cmd_ready, rank.last_act + config_.t_rrd);
        if (rank.act_count >= 4)
            cmd_ready = std::max(
                cmd_ready, rank.acts[rank.act_head] + config_.t_faw);
    }
    cmd_ready = refreshAdjust(rank_index, cmd_ready);
    cmd_ready += prep;

    // Bus turnaround gaps relative to the previous transfer.
    sim::Tick bus_ready = bus_free_;
    if (last_rank_ >= 0 && last_rank_ != rank_index) {
        bus_ready += config_.t_rtrs;
        ++stats_.rank_switches;
    } else if (last_was_write_ && !chosen.is_write) {
        bus_ready += config_.t_wtr;
        ++stats_.write_read_turnarounds;
    }

    const sim::Tick data_start = std::max(cmd_ready, bus_ready);
    const sim::Tick data_end = data_start + config_.t_burst;

    // Statistics.
    if (!bank.row_open)
        ++stats_.row_misses;
    else if (bank.open_row == chosen.row)
        ++stats_.row_hits;
    else
        ++stats_.row_conflicts;
    if (chosen.is_write)
        ++stats_.writes;
    else
        ++stats_.reads;
    stats_.queue_wait_ticks += data_start - chosen.arrival;
    stats_.busy_ticks += config_.t_burst;

    // Bank and rank bookkeeping.
    if (bank.row_open && bank.open_row == chosen.row) {
        ++bank.hit_streak;
    } else {
        bank.hit_streak = 1;
    }
    if (activates) {
        const sim::Tick act_at = cmd_ready - config_.t_rcd;
        rank.acts[rank.act_head] = act_at;
        rank.act_head = (rank.act_head + 1) % 4;
        rank.last_act = act_at;
        ++rank.act_count;
    }
    if (config_.page_policy == PagePolicy::kClosed) {
        // Auto-precharge: the row closes behind the access (fold the
        // precharge into the bank busy time).
        bank.row_open = false;
        bank.ready = data_end + config_.t_rp +
                     (chosen.is_write ? config_.t_wr : 0);
        bank.hit_streak = 0;
    } else {
        bank.row_open = true;
        bank.open_row = chosen.row;
        bank.ready = data_end;
    }
    bank.last_was_write = chosen.is_write;

    bus_free_ = data_end;
    last_rank_ = rank_index;
    last_was_write_ = chosen.is_write;

    // Both directions complete a CAS latency after the data slot:
    // reads when the data returns, stores when the line's ownership
    // round trip finishes (ordinary cached stores read-for-ownership
    // before retiring, so their visible cost mirrors a read).
    const sim::Tick done = data_end + config_.t_cl;
    events_.scheduleLane(complete_lane_, done, chosen.callback);

    maybeSchedulePick();
}

void
DramChannel::complete(std::uint32_t callback)
{
    --in_flight_;
    if (!callbacks_.holds(callback)) {
        callbacks_.take(callback);
        return;
    }
    // The return hop is scheduled from inside this event, which fixes
    // its EventId and with it every same-tick tie-break.
    events_.scheduleLane(hop_lane_, events_.now() + frontend_latency_,
                         callback);
}

void
DramChannel::returnHop(std::uint32_t callback)
{
    // Take the callback out first: it may submit, which can reuse
    // this slot.
    const auto cb = callbacks_.take(callback);
    cb();
}

double
DramChannel::busUtilisation() const
{
    const sim::Tick now = events_.now();
    if (now == 0)
        return 0.0;
    return static_cast<double>(stats_.busy_ticks) /
           static_cast<double>(now);
}

double
DramChannel::rowHitRate() const
{
    const std::uint64_t total =
        stats_.row_hits + stats_.row_misses + stats_.row_conflicts;
    if (total == 0)
        return 0.0;
    return static_cast<double>(stats_.row_hits) /
           static_cast<double>(total);
}

} // namespace tt::mem
