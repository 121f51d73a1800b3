(** The PinPoints pipeline: profile -> SimPoint -> pinballs -> ELFies ->
    validation, shared by the Fig. 9/10 and Table II/III experiments.

    Implements the paper's methodology end to end, including
    {e alternate region selection}: when a cluster's representative
    ELFie does not re-execute gracefully, the second- and third-best
    representatives are tried, recovering coverage (Section I). *)

type region_outcome = {
  region : Elfie_simpoint.Simpoint.region;  (** the region actually used *)
  rank_used : int option;  (** [None] when every alternate failed *)
  elfie_sample : Elfie_perf.Perf.sample option;
  elfie_sample2 : Elfie_perf.Perf.sample option;
      (** an independent second measurement instance (when requested) *)
  sim_cpi : float option;  (** CoreSim region CPI (when simulation is on) *)
}

(** Graceful-recovery audit trail. Every time the pipeline had to do
    more than measure a region's first ELFie at the first seed — retry
    with fresh stack-randomization seeds after an all-trials failure
    (typically a stack collision), fall back to a lower-ranked alternate
    region, or abandon a cluster entirely — one record lands here. *)
type deg_action =
  | Seed_retried of { retries : int; seed : int64 }
      (** recovered after [retries] reseeds; [seed] is the base seed
          that finally produced a graceful trial *)
  | Alternate_used of { rank : int }
      (** the cluster is represented by its rank-[rank] alternate *)
  | Quarantined of {
      classification : Elfie_supervise.Classify.t;
      attempts : int;
    }
      (** the supervisor exhausted its retry budget on this job (or hit
          an unretryable classification); the job's result is excluded *)
  | Abandoned  (** no alternate re-executed gracefully; coverage lost *)

type degradation = {
  deg_cluster : int;
  deg_action : deg_action;
  deg_detail : string;
}

val pp_degradation : Format.formatter -> degradation -> unit

type validation = {
  bench : string;
  total_ins : int64;
  num_slices : int;
  k : int;
  coverage : float;  (** summed weight of gracefully executing ELFies *)
  native_whole : Elfie_perf.Perf.sample;
  elfie_pred_cpi : float;
  elfie_error : float;  (** |whole - predicted| / whole, ELFie-based *)
  elfie_error2 : float option;
      (** second ELFie-based instance, over the regions whose second
          sample has a graceful trial; [None] when none has *)
  sim_whole_cpi : float option;
  sim_pred_cpi : float option;
  sim_error : float option;  (** same, via whole-program simulation *)
  regions : region_outcome list;
  degradations : degradation list;  (** recovery actions, in order *)
}

(** Build one region ELFie: capture a fat pinball over the region,
    reconstruct sysstate, convert. Returns the image and the sysstate
    (for installing proxy files before runs). [None] if the program
    ended before the region start. *)
val make_region_elfie :
  Elfie_pin.Run.spec ->
  name:string ->
  warmup:int64 ->
  start:int64 ->
  length:int64 ->
  (Elfie_elf.Image.t * Elfie_pin.Sysstate.t) option

(** Full validation of simulation-region selection for one benchmark.
    [second_base_seed] adds an independent second set of ELFie
    measurements (Fig. 9 runs two instances).

    Recovery is driven by {!Elfie_supervise.Supervisor}: each region
    measurement is a supervised job whose failures are {e classified}
    (see {!Elfie_supervise.Classify}); stack collisions and syscall
    failures are reseeded up to [max_seed_retries] times (e.g. when the
    ELFie's stack sections collide with the randomized native stack),
    runaway executions get one raised instruction budget, and
    unretryable classes are quarantined before the pipeline falls back
    to the cluster's next ranked alternate region. Every recovery action
    — including quarantines — is recorded in [degradations].

    [elfie_options] sets the conversion options per region, under the
    {!Elfie_core.Pinball2elf.region} recipe — primarily a hook for
    fault-injection tests.

    [jobs] caps how many region measurements of one rank run
    concurrently on {!Elfie_util.Pool} domains (default: the pool's
    process default, i.e. the [--jobs] flag). Region seeds are fixed
    per job name, and per-rank results are merged in request order, so
    the validation — samples, degradation sequence, coverage — is
    identical at any [jobs] value. *)
val validate :
  ?jobs:int ->
  ?params:Elfie_simpoint.Simpoint.params ->
  ?trials:int ->
  ?base_seed:int64 ->
  ?second_base_seed:int64 ->
  ?with_simulation:bool ->
  ?max_alternates:int ->
  ?max_seed_retries:int ->
  ?elfie_options:
    (Elfie_simpoint.Simpoint.region ->
     Elfie_core.Pinball2elf.options ->
     Elfie_core.Pinball2elf.options) ->
  Elfie_workloads.Suite.benchmark ->
  validation
