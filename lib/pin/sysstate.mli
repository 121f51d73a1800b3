(** The [pinball_sysstate] tool: OS-state reconstruction for ELFies.

    An ELFie re-executes its region's system calls natively, so file
    descriptors that were open before the region, and file contents the
    region reads, must exist when it runs. This tool analyses a
    pinball's system-call log and reconstructs:

    - a {e proxy file} per file opened inside the region (content
      rebuilt solely from the logged [read] results, as in the paper);
    - a proxy file [FD_n] per descriptor that predates the region,
      to be re-opened and [dup2]'d to descriptor [n] by the ELFie's
      [elfie_on_start] callback;
    - [BRK.log], the first and last program-break values, used by the
      startup code to restore the heap layout. *)

type t = {
  files : (string * string) list;  (** proxy file name -> content *)
  fd_files : (int * string) list;  (** pre-region descriptor -> proxy name *)
  brk_start : int64;
  brk_end : int64;
}

(** Analyse a pinball's injection log. *)
val analyze : Elfie_pinball.Pinball.t -> t

(** Install the proxy files into a Vkernel filesystem under [workdir]
    (the [sysstate/workdir] directory of the paper): [FD_n] proxies and
    relative paths land in [workdir], absolute paths at their own
    location. *)
val install : t -> Elfie_kernel.Fs.t -> workdir:string -> unit

(** Serialize to a file set (for the on-disk [pinball.sysstate]
    directory): proxy files plus [BRK.log]. *)
val to_files : t -> (string * string) list

(** Rebuild from a file set; a missing or malformed [BRK.log] is an
    [Error]. [artifact] names the directory in diagnostics. *)
val of_files_result :
  ?artifact:string -> (string * string) list -> (t, Elfie_util.Diag.t) result

(** Write/read the sysstate directory on the real filesystem (slashes in
    proxy names are percent-encoded in file names). [load_dir] raises
    [Elfie_util.Diag.Error] on unreadable or malformed members. *)
val save : t -> dir:string -> unit

val load_dir : dir:string -> t

val pp : Format.formatter -> t -> unit
