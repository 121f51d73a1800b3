(** The system ELF loader.

    Mirrors the Linux semantics the paper's stack-collision analysis
    depends on (Section II-B3):

    + every allocatable segment of the image is mapped first;
    + the initial stack is placed just under a fixed ceiling, lowered by
      a per-process random offset (stack randomization);
    + the loader reserves stack pages downward {e until it meets an
      already-mapped page}; if the space obtained cannot even hold the
      process arguments and environment, the process is killed before
      any code runs ({!Stack_collision}).

    An ELFie whose checkpointed stack pages were emitted as allocatable
    sections can therefore die at load time; marking them
    non-allocatable (the pinball2elf fix) keeps the loader happy. *)

exception Exec_failed of string

(** The fatal stack-collision case, raised as its own (structured)
    exception so supervision layers can classify it without matching on
    message text: only [reserved] of the [needed] minimum pages could be
    reserved below the randomized [stack_top]. *)
exception
  Stack_collision of { reserved : int; needed : int; stack_top : int64 }

type layout = {
  entry : int64;
  initial_rsp : int64;
  stack_top : int64;
  stack_pages_reserved : int;
}

(** [load kernel machine image ~argv ~env] maps the image, builds the
    initial stack (argc/argv/envp/auxv), sets the program break, and
    creates thread 0 at the entry point. Returns the thread id and the
    chosen layout.

    Raises {!Exec_failed} on a non-executable image and
    {!Stack_collision} on a fatal stack collision. *)
val load :
  Vkernel.t ->
  Elfie_machine.Machine.t ->
  Elfie_elf.Image.t ->
  argv:string list ->
  env:string list ->
  int * layout
