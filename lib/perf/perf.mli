(** Native hardware-counter measurement (the libperfle / perf-stat
    analogue).

    Real ELFies program hardware performance counters from their
    callback routines and read them on exit; here the counters live in
    the machine, and this module provides the measurement methodology on
    top: repeated trials with distinct scheduler seeds (the paper
    averages ten runs) and mean/stddev summaries for whole programs and
    for ELFie regions. *)

type sample = {
  mean_cpi : float;
  stddev_cpi : float;
  instructions : int64;  (** of the last trial *)
  trials : int;
  failures : int;  (** trials that did not finish gracefully *)
  failure_classes : Elfie_supervise.Classify.t list;
      (** crash class of each failed trial, in trial order; empty for
          {!whole_program}, which has no per-trial outcome to classify.
          {!pp_sample} prints the aggregated tally. *)
}

val mean : float list -> float
val stddev : float list -> float

(** Measure a whole program natively, [trials] times. *)
val whole_program : ?trials:int -> ?base_seed:int64 -> Elfie_pin.Run.spec -> sample

(** Measure an ELFie region natively, [trials] times. Uses the slice-CPI
    counter window (post-warmup) when the ELFie carries a warmup mark.
    Failed (non-graceful) trials are excluded from the mean.

    Warm-once methodology: the warmup executes a single time at
    [base_seed] (run to the warmup mark and captured copy-on-write via
    {!Elfie_core.Elfie_runner.warm}), then each trial forks the capture
    and re-derives its scheduler/timer streams from [base_seed + i] —
    bit-identical to warming every trial from scratch with those seeds,
    at a fraction of the cost, sequentially or across pool domains.
    Images without a warmup mark fall back to one full run per trial. *)
val elfie_region :
  ?trials:int ->
  ?base_seed:int64 ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  Elfie_elf.Image.t ->
  sample

(** Like {!elfie_region}, but also returns every trial's raw outcome (in
    trial order) so supervision layers can classify {e why} trials
    failed instead of only counting them. *)
val elfie_region_detailed :
  ?trials:int ->
  ?base_seed:int64 ->
  ?fs_init:(Elfie_kernel.Fs.t -> unit) ->
  ?cwd:string ->
  ?max_ins:int64 ->
  Elfie_elf.Image.t ->
  sample * Elfie_core.Elfie_runner.outcome list

val pp_sample : Format.formatter -> sample -> unit
