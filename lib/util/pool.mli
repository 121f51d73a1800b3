(** Minimal work pool on OCaml 5 domains (no dependencies).

    Used to fan independent machine runs — repeated perf trials, region
    measurements, per-benchmark experiment loops — across cores.
    Machines are self-contained mutable values, so each task builds and
    drives its own machine domain-locally; the shared process-global
    observability state ({!Elfie_obs.Metrics}, {!Elfie_obs.Trace},
    {!Elfie_obs.Profile}) and the supervisor journal are mutex-guarded
    and safe to touch from tasks.

    Nested [map]/[run] calls issued from inside a pool task execute
    sequentially on the calling worker's domain, so the total number of
    live domains is bounded by the outermost [jobs]. *)

(** A task exception re-raised with its task named: which item (by
    [label] and input index) failed. Only raised when the [?label]
    argument of {!map}/{!run} is given — batch drivers (the ELFie farm)
    pass it so a failed batch names the job, not just the exception. *)
exception
  Task_error of { label : string; index : int; exn : exn }

(** [map ?jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] tasks concurrently on separate domains. Results are returned
    in input order. The first task exception (if any) is re-raised in
    the caller after remaining workers drain, with its backtrace —
    wrapped in {!Task_error} carrying the item's index and label when
    [label] is given, raw otherwise.

    [jobs] defaults to {!default_jobs}; [jobs <= 1] (and single-element
    or empty lists) degrade to a plain sequential [List.map] (the same
    {!Task_error} wrapping applies). *)
val map : ?jobs:int -> ?label:(int -> string) -> ('a -> 'b) -> 'a list -> 'b list

(** Process default for [?jobs], initially [1] (fully sequential).
    Wired to the [--jobs] CLI flag; values [< 1] clamp to [1]. *)
val set_default_jobs : int -> unit

val default_jobs : unit -> int

(** The runtime's recommended domain count for this host (what
    [--jobs 0] resolves to). *)
val recommended : unit -> int
