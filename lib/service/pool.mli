(** Bounded job queue and domain-budgeted scheduler.

    The daemon's execution core, usable in-process by tests: a FIFO
    queue of {!Job.t}s bounded at [queue_limit], drained by [workers]
    worker domains, under one global {e domain-token} budget shared
    with the campaign engine's [--jobs] sharding. A worker holds one
    token implicitly; before running a job that declares [jobs = n] it
    acquires up to [n - 1] extra tokens (taking only what is free —
    never blocking) and passes the total as the campaign's
    [max_workers] cap, so concurrent jobs time-share the machine's
    cores without changing any job's report (shard decomposition stays
    exactly as requested).

    Each job runs under its own labeled {!Simcov_obs.Obs} registry:
    its trace events (including the [job.progress] stream) and
    throttled [simcov-metrics/1] snapshots are forwarded line-by-line
    to the submitter's [on_line], and never interleave with a
    concurrent job's. The final [simcov-job/1] result envelope goes to
    [on_done].

    Cancellation: {!cancel} on a queued job resolves it immediately
    with status [cancelled]; on a running job it flips the job's
    [should_stop], which drains the campaign through its durable
    checkpoint and resolves with status [interrupted] (exit 130).
    {!drain} does this to the whole pool — the daemon's SIGTERM path. *)

module Json = Simcov_util.Json

type t

val create :
  ?cache:Model_cache.t ->
  ?queue_limit:int ->
  ?workers:int ->
  ?domain_tokens:int ->
  unit ->
  t
(** Defaults: the shared model cache, queue bound 64, 2 worker
    domains, [Domain.recommended_domain_count ()] domain tokens. *)

val submit :
  t ->
  ?on_line:(string -> unit) ->
  ?on_done:(Json.t -> unit) ->
  Job.t ->
  (string, string) result
(** Enqueue a job. Returns the assigned id (the job's own [id] when
    given and unused, a generated [job-N] otherwise) or [Error reason]
    when the queue is full or the pool is draining — the daemon maps
    that to a [rejected] envelope with exit code 6. [on_line] receives
    streamed trace/metrics lines (called from a worker domain; must be
    thread-safe). [on_done] receives the final envelope exactly once. *)

val cancel : t -> string -> bool
(** [true] if the id named a queued or running job; [false] for an
    unknown, finished or forgotten one. *)

val finished_kept : int
(** How many finished jobs the pool remembers, most recently resolved
    first: a long-lived daemon keeps every queued and running job but
    forgets older finished ones, so its memory does not grow with the
    jobs it has served. A resolved job also drops its [on_line] and
    [on_done] callbacks. *)

val list : t -> Json.t
(** The [simcov-jobs/1] snapshot:
    [{"schema":"simcov-jobs/1","jobs":[{"id","kind","state"},...]}]
    in submission order, with [state] one of [queued], [running], or a
    final {!Job.status_name}; finished jobs beyond {!finished_kept}
    are left out. *)

val wait : t -> unit
(** Block until every submitted job has resolved. *)

val drain : t -> unit
(** Stop accepting, cancel every queued job, interrupt every running
    job (through the durable checkpoint path), wait for the workers to
    exit. Idempotent. *)
