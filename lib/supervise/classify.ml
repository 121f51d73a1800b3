type t =
  | Graceful
  | Stack_collision
  | Divergence of { pc : int64; icount : int64 }
  | Syscall_failure
  | Runaway
  | Backend_error of string

(* Journal lines are tab-separated, so the rendered classification must
   be a single tab/newline-free token: escape the backend message. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\t' -> Buffer.add_string buf "%09"
      | '\n' -> Buffer.add_string buf "%0A"
      | '\r' -> Buffer.add_string buf "%0D"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
        match (hex s.[!i + 1], hex s.[!i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            i := !i + 2
        | _ -> Buffer.add_char buf '%')
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let to_string = function
  | Graceful -> "graceful"
  | Stack_collision -> "stack-collision"
  | Divergence { pc; icount } ->
      Printf.sprintf "divergence:pc=0x%Lx:icount=%Ld" pc icount
  | Syscall_failure -> "syscall-failure"
  | Runaway -> "runaway"
  | Backend_error msg -> "backend-error:" ^ escape msg

let of_string s =
  match s with
  | "graceful" -> Some Graceful
  | "stack-collision" -> Some Stack_collision
  | "syscall-failure" -> Some Syscall_failure
  | "runaway" -> Some Runaway
  | _ -> (
      let prefixed p =
        String.length s > String.length p
        && String.sub s 0 (String.length p) = p
      in
      let rest p = String.sub s (String.length p) (String.length s - String.length p) in
      if prefixed "backend-error:" then Some (Backend_error (unescape (rest "backend-error:")))
      else if prefixed "divergence:" then
        try
          Scanf.sscanf (rest "divergence:") "pc=0x%Lx:icount=%Ld" (fun pc icount ->
              Some (Divergence { pc; icount }))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
      else None)

let pp fmt t = Format.pp_print_string fmt (to_string t)
let is_graceful = function Graceful -> true | _ -> false

let fault_pc = function
  | Elfie_machine.Machine.Page_fault { pc; _ } -> pc
  | Invalid_opcode pc | Privileged pc -> pc

let of_outcome (o : Elfie_core.Elfie_runner.outcome) =
  if o.stack_collision then Stack_collision
  else
    match o.load_error with
    | Some msg -> Backend_error msg
    | None -> (
        if o.graceful then Graceful
        else
          match o.machine_fault with
          | Some (fault, _tid, retired) ->
              (* A thread faulting mid-region means execution left the
                 captured state: the paper's divergence failure mode. *)
              Divergence { pc = fault_pc fault; icount = retired }
          | None -> (
              if o.runaway then Runaway
              else
                match o.exit_status with
                | Some _ -> Syscall_failure
                | None -> Backend_error "armed counters never fired"))

let of_exn = function
  | Elfie_kernel.Loader.Stack_collision _ -> Stack_collision
  | Elfie_util.Diag.Error d -> (
      match d.Elfie_util.Diag.code with
      | Elfie_util.Diag.Stack_collision -> Stack_collision
      | Elfie_util.Diag.Divergence -> Divergence { pc = 0L; icount = 0L }
      | _ -> Backend_error (Elfie_util.Diag.to_string d))
  | Elfie_kernel.Loader.Exec_failed msg -> Backend_error ("exec failed: " ^ msg)
  | exn -> Backend_error (Printexc.to_string exn)
