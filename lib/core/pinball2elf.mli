(** pinball2elf: convert a pinball into a stand-alone ELF executable.

    This is the paper's primary contribution. The generated ELFie

    - carries every memory page of the (fat) parent pinball, each run of
      consecutive pages becoming one ELF section mapped at its original
      virtual address (the ELFie has the parent's exact memory layout);
    - marks checkpointed {e stack} pages non-allocatable and keeps an
      allocatable shadow copy, so the system loader can place the fresh
      process stack freely; the generated startup code then unmaps any
      colliding loader pages and rebuilds the original stack contents
      (the Section II-B3 stack-collision fix — disable it with
      [alloc_stack_sections = true] to reproduce the failure);
    - packs each thread's initial register state into a context
      structure (XSAVE-style extended state + a pop-list of segment
      bases, flags and GPRs ending in a pointer to that thread's
      {e thread entry}, exactly the Fig. 5/6 scheme);
    - creates the region's threads with [clone], each starting in the
      shared thread-initialization function;
    - optionally embeds the SYSSTATE [elfie_on_start] behaviour
      (re-open [FD_n] proxies and [dup2] them into place, restore the
      program break) and arms a per-thread retired-instruction counter
      for the graceful exit;
    - optionally inserts a simulator ROI marker before jumping to
      application code, and symbols ([_start], [thread_init],
      [.tN.<reg>], ...) for debugging. *)

(** ROI marker flavours (the [--roi-start TYPE] switch). *)
type marker = Sniper | Ssc of int64 | Simics of int

type options = {
  alloc_stack_sections : bool;
      (** emit stack pages as allocatable (reproduces the collision bug) *)
  marker : marker option;
  arm_counters : bool;  (** graceful exit via the per-thread counter *)
  sysstate : Elfie_pin.Sysstate.t option;
  monitor_thread : bool;
      (** create a monitor thread that waits for the main thread and
          runs [elfie_on_exit] (prints a final counter line) *)
  object_only : bool;  (** emit an ET_REL object without startup code *)
  warmup_mark : int64 option;
      (** arm a mid-run counter snapshot after this many thread-0
          instructions — the PinPoints warmup boundary, so harnesses can
          measure the slice proper with warmed microarchitectural state *)
  extra_on_start : (Elfie_isa.Builder.t -> unit) option;
      (** user code linked into [elfie_on_start] (the [-p] switch): runs
          once after state restoration, before any thread is created *)
  extra_on_thread_start : (Elfie_isa.Builder.t -> unit) option;
      (** user code at each thread entry (the [-t] switch): runs with
          application registers already restored — it must preserve any
          register it clobbers (the context stack below RSP is scratch) *)
  extra_on_exit : (Elfie_isa.Builder.t -> unit) option;
      (** user code in [elfie_on_exit] (the [-e] switch); implies the
          monitor thread *)
}

val default_options : options

(** Virtual-address threshold above which checkpointed pages are
    treated as stack pages. *)
val stack_page_threshold : int64

(** Convert. Raises [Failure] if no address window can be found for the
    startup code (pathological pinball covering all low memory). *)
val convert : ?options:options -> Elfie_pinball.Pinball.t -> Elfie_elf.Image.t

(** [region ~warmup pb] builds the PinPoints region ELFie: it
    reconstructs the pinball's sysstate, embeds it, inserts the ROI
    marker [Ssc 0x4649] and, when [warmup > 0], the warmup mark after
    [warmup] thread-0 instructions. The other fields come from
    [options]. Returns the image and the sysstate, whose proxy files
    must be installed before a run. *)
val region :
  ?options:options ->
  warmup:int64 ->
  Elfie_pinball.Pinball.t ->
  Elfie_elf.Image.t * Elfie_pin.Sysstate.t

(** The linker-script text describing the generated layout (the
    pinball2elf [-l] feature); purely informative. *)
val linker_script : Elfie_elf.Image.t -> string

(** Dump the pinball's initial thread contexts as an assembly listing
    (valid [vx86asm] input), the pinball2elf feature that "can help
    users write their own startup code". *)
val context_listing : Elfie_pinball.Pinball.t -> string
