(** A library of ready-made Vpin analysis tools (the paper's Section
    III-A use case: feeding ELFies to Pin-based dynamic analyses).

    Each tool is a plain pintool: it analyses every instruction it is
    attached for. Where the analysis starts and stops is {!run}'s
    business, the same region-of-interest start the simulators use
    ({!Pintool.start_roi}): from the first ROI marker, so that ELFie
    startup code is excluded, to a bound in retired instructions (the
    region icount recorded in the pinball), for a graceful end of
    analysis. The footprint and branch tools make no before-call.

    An instruction that faults retires nothing, so it does not count
    towards the bound: the tools see it, and the run goes on until the
    bound's number of instructions have retired. *)

(** Common scaffolding returned by each tool constructor: the tool to
    attach and a function rendering the analysis report. *)
type 'a analysis = { tool : Pintool.t; result : unit -> 'a }

(** [run ?from_marker ?limit ~max_ins machine tools] runs [machine] with
    [tools] attached from the start of the region of interest: the
    first ROI marker with [from_marker] (default [false]), or at once.
    The run ends when no thread is runnable, when [limit] instructions
    have retired past that start, or when [max_ins] have retired
    machine-wide. If no marker is reached, the tools see nothing. *)
val run :
  ?from_marker:bool ->
  ?limit:int64 ->
  max_ins:int64 ->
  Elfie_machine.Machine.t ->
  Pintool.t list ->
  unit

(** Instruction-mix histogram: counts per instruction class. *)
type mix = {
  mix_total : int64;
  mix_classes : (string * int64) list;  (** sorted by count, descending *)
}

val instruction_mix : unit -> mix analysis

(** Memory-footprint profiler: distinct pages and cache lines touched,
    read/write volumes. *)
type footprint = {
  fp_pages : int;
  fp_lines : int;
  fp_reads : int64;
  fp_writes : int64;
  fp_bytes_read : int64;
  fp_bytes_written : int64;
}

val memory_footprint : unit -> footprint analysis

(** Branch profile: executed/taken counts and the hottest branch sites. *)
type branch_profile = {
  br_executed : int64;
  br_taken : int64;
  br_hottest : (int64 * int) list;  (** (pc, executions), top ten *)
}

val branch_profile : unit -> branch_profile analysis

(** Basic-block execution counts (a flat profile over block heads). *)
type block_profile = { bb_blocks : int; bb_hottest : (int64 * int) list }

val block_profile : unit -> block_profile analysis

(** Attach the global profiler ({!Elfie_obs.Profile.global}) to a
    machine, when one is installed — the [--profile] hook used by the
    native runner and the replayer. *)
val attach_global_profile : Elfie_machine.Machine.t -> unit

val pp_mix : Format.formatter -> mix -> unit
val pp_footprint : Format.formatter -> footprint -> unit
val pp_branch_profile : Format.formatter -> branch_profile -> unit
val pp_block_profile : Format.formatter -> block_profile -> unit
