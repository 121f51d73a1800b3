(** Content-addressed, crash-safe artifact store — the ELFie farm's
    persistence layer.

    Every pipeline artifact (pinball, BBV profile, SimPoint selection,
    ELFie, measurement record) is keyed by a stable digest of the
    {e program bytes} plus its {e normalized parameters}, so duplicate
    submissions across batches hit cache instead of re-executing, and a
    changed parameter (say [max_k]) re-keys only the artifacts it
    actually affects (incremental SimPoint reuse).

    Crash-safety contract:

    - {b Atomic commits.} {!put} writes to a temporary file in the
      artifact's directory, flushes and [fsync]s it, then atomically
      renames it into place (and fsyncs the directory), so a reader
      never observes a half-written artifact under its final name and a
      power-loss-style kill leaves at most an orphan temp file.
    - {b Self-describing artifacts.} Every file carries a header with
      the store magic + version, artifact kind, payload format version,
      the key digest, producer metadata, payload length and payload
      checksum.
    - {b Corruption quarantine.} {!get} re-verifies the header and the
      payload checksum on every read. Any mismatch — torn file, flipped
      bit, version skew, wrong key — {e quarantines} the file: it is
      moved (never deleted) into [<root>/quarantine/], recorded in the
      quarantine log and the [elfie_store_quarantines_total] metric, and
      the read reports a miss so the caller recomputes. Corruption
      degrades to a cache miss, never to a wrong answer.
    - {b Advisory per-key locks.} {!get_or_compute} takes a lock file
      next to the artifact so concurrent drivers (processes or domains)
      racing on one key perform exactly one computation; losers wait and
      then serve the winner's commit. Locks held by dead processes are
      detected (the owner pid no longer exists, or a live owner has
      held the lock for over 60 s) and broken.

    All store operations are safe to call from {!Elfie_util.Pool}
    worker domains. *)

type kind = Pinball | Bbv | Simpoint | Elfie | Measurement

val all_kinds : kind list

(** Stable directory/label name: ["pinball"], ["bbv"], ... *)
val kind_name : kind -> string

(** A content address: artifact kind + digest of program bytes and
    normalized parameters. *)
type key

(** [key kind ~program params] builds a key. [params] are normalized —
    sorted by name, percent-escaped — so parameter order never changes
    the address; [program] is hashed, not stored. *)
val key : kind -> program:string -> (string * string) list -> key

val digest : key -> string

type t

(** Open (creating if needed) a store rooted at a directory. [producer]
    is free-form metadata recorded in every artifact header (defaults to
    ["elfie"] + the process id). *)
val open_store : ?producer:string -> string -> t

val root : t -> string

(** One quarantined file: the digest and kind parsed from its name, the
    verification failure that condemned it, and where it was moved. *)
type quarantine = {
  q_digest : string;
  q_kind : string;
  q_reason : string;
      (** ["torn"], ["checksum-mismatch"], ["version-skew"],
          ["format-skew"], ["bad-header"], ["key-mismatch"],
          ["undecodable"] *)
  q_moved_to : string;  (** full path inside [<root>/quarantine/] *)
}

(** Quarantines performed by {e this} handle, oldest first. *)
val quarantines : t -> quarantine list

(** The persistent quarantine log ([<root>/quarantine/log]), including
    records written by other processes. Torn lines are ignored. *)
val read_quarantine_log : t -> quarantine list

(** Final on-disk path of a key's artifact (exposed for tests and
    fault injection). *)
val path_of : t -> key -> string

(** The advisory lock file guarding a key. *)
val lock_path_of : t -> key -> string

(** Atomically commit an artifact (write-to-temp + fsync + rename).
    [format] is the payload codec's version, checked on read. *)
val put : t -> key -> format:int -> string -> unit

(** Verified read: [Some payload] only if the header is intact, kind /
    key / [format] match, and the payload checksum verifies. Any failure
    quarantines the file and returns [None] (a miss). *)
val get : t -> key -> format:int -> string option

val mem : t -> key -> bool

(** [get_or_compute t key ~format f] returns the cached payload or runs
    [f] under the key's advisory lock, commits its result, and returns
    it. Exactly one racing caller computes; others serve the commit.
    Stale locks (dead owner pid, or older than 60 s) are broken.
    [on_result] observes whether the value came from cache. *)
val get_or_compute :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  t ->
  key ->
  format:int ->
  (unit -> string) ->
  string

(** Typed variant: cached payloads are [decode]d; a payload that fails
    to decode (codec bug, undetected skew) is quarantined with reason
    ["undecodable"] and recomputed — same degrade-to-miss contract. *)
val get_or_compute_v :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  t ->
  key ->
  format:int ->
  encode:('a -> string) ->
  decode:(string -> ('a, Elfie_util.Diag.t) result) ->
  (unit -> 'a) ->
  'a

(** Total payload+header bytes of live artifacts (quarantine excluded). *)
val size_bytes : t -> int64

(** Number of live artifacts of a kind. *)
val artifact_count : t -> kind -> int

(** One artifact an eviction pass would remove (or removed). *)
type eviction = {
  ev_kind : kind;
  ev_digest : string;
  ev_path : string;
  ev_bytes : int;
}

(** [eviction_plan t ~max_bytes] lists exactly what {!evict} would
    remove, oldest first, without touching anything — the [gc --dry-run]
    view. The order is deterministic and documented: ascending
    modification time, ties broken by kind name then digest, dropping
    files until the remaining live bytes fit [max_bytes]. Lock and temp
    files are never candidates; quarantined files are never touched. *)
val eviction_plan : t -> max_bytes:int64 -> eviction list

(** Evict exactly {!eviction_plan}'s files; returns how many were
    removed (counted in [elfie_store_evictions_total]). *)
val evict : t -> max_bytes:int64 -> int

(** Summary of the persistent quarantine area, from the Q1 log plus the
    on-disk corpses: file count, total bytes still preserved, and a
    reason tally (reason, count) sorted by descending count then
    reason. *)
val quarantine_stats : t -> int * int64 * (string * int) list
