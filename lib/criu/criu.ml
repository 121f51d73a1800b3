open Elfie_util
open Elfie_machine
open Elfie_kernel

type t = {
  pages : (int64 * bytes) list;
  contexts : Context.t array;
  fds : (int * Vkernel.fd_state) list;
  brk : int64;
  cwd : string;
}

let checkpoint machine kernel =
  let live =
    List.filter (fun th -> th.Machine.state = Machine.Runnable)
      (Machine.threads machine)
  in
  List.iteri
    (fun i th ->
      if th.Machine.tid <> i then
        failwith "Criu.checkpoint: exited thread leaves a tid gap")
    live;
  {
    (* Freeze the address space copy-on-write instead of deep-copying
       every page: the checkpoint aliases the live page bytes, and any
       later write in the checkpointed machine unshares its page first,
       so the aliased bytes stay exactly as captured. O(pages) pointer
       work, zero byte copies. *)
    pages = Addr_space.frozen_pages (Addr_space.freeze (Machine.mem machine));
    contexts = Array.of_list (List.map (fun th -> Context.copy th.Machine.ctx) live);
    fds = Vkernel.fd_table kernel;
    brk = Vkernel.brk kernel;
    cwd = Vkernel.cwd kernel;
  }

let restore ?(seed = 23L) t fs =
  let machine =
    Machine.create (Machine.Free { seed; quantum_min = 50; quantum_max = 200 })
  in
  List.iter
    (fun (addr, data) -> Addr_space.store (Machine.mem machine) addr data)
    t.pages;
  let kernel =
    Vkernel.create
      ~config:{ Vkernel.default_config with seed; initial_cwd = t.cwd }
      fs
  in
  Vkernel.install kernel machine;
  Vkernel.force_brk kernel t.brk;
  List.iter (fun (fd, state) -> Vkernel.set_fd kernel fd state) t.fds;
  Array.iter (fun ctx -> ignore (Machine.add_thread machine (Context.copy ctx)))
    t.contexts;
  (machine, kernel)

(* --- serialization ---------------------------------------------------------- *)

let magic = 0x56435249 (* "IRCV" *)

let to_files t =
  let w = Byteio.Writer.create ~capacity:4096 () in
  Byteio.Writer.u32 w magic;
  Byteio.Writer.u32 w (List.length t.pages);
  List.iter
    (fun (addr, data) ->
      Byteio.Writer.u64 w addr;
      Byteio.Writer.u32 w (Bytes.length data);
      Byteio.Writer.bytes w data)
    t.pages;
  Byteio.Writer.u32 w (Array.length t.contexts);
  Array.iter
    (fun ctx ->
      let b = Context.to_bytes ctx in
      Byteio.Writer.u32 w (Bytes.length b);
      Byteio.Writer.bytes w b)
    t.contexts;
  Byteio.Writer.u32 w (List.length t.fds);
  List.iter
    (fun (fd, state) ->
      Byteio.Writer.u32 w fd;
      match state with
      | Vkernel.Fd_console -> Byteio.Writer.u8 w 0
      | Vkernel.Fd_file { path; pos } ->
          Byteio.Writer.u8 w 1;
          Byteio.Writer.u32 w (String.length path);
          Byteio.Writer.string w path;
          Byteio.Writer.u32 w pos)
    t.fds;
  Byteio.Writer.u64 w t.brk;
  Byteio.Writer.u32 w (String.length t.cwd);
  Byteio.Writer.string w t.cwd;
  [ ("image", Bytes.to_string (Byteio.Writer.contents w)) ]

let of_files files =
  let s =
    match List.assoc_opt "image" files with
    | Some s -> s
    | None -> failwith "Criu: missing image file"
  in
  let r = Byteio.Reader.of_string s in
  if Byteio.Reader.u32 r <> magic then failwith "Criu: bad magic";
  let n_pages = Byteio.Reader.u32 r in
  let pages =
    List.init n_pages (fun _ ->
        let addr = Byteio.Reader.u64 r in
        let len = Byteio.Reader.u32 r in
        (addr, Byteio.Reader.bytes r len))
  in
  let n_ctx = Byteio.Reader.u32 r in
  let contexts =
    Array.init n_ctx (fun _ ->
        let len = Byteio.Reader.u32 r in
        Context.of_bytes (Byteio.Reader.bytes r len))
  in
  let n_fds = Byteio.Reader.u32 r in
  let fds =
    List.init n_fds (fun _ ->
        let fd = Byteio.Reader.u32 r in
        match Byteio.Reader.u8 r with
        | 0 -> (fd, Vkernel.Fd_console)
        | _ ->
            let len = Byteio.Reader.u32 r in
            let path = Byteio.Reader.string_n r len in
            let pos = Byteio.Reader.u32 r in
            (fd, Vkernel.Fd_file { path; pos }))
  in
  let brk = Byteio.Reader.u64 r in
  let cwd_len = Byteio.Reader.u32 r in
  let cwd = Byteio.Reader.string_n r cwd_len in
  { pages; contexts; fds; brk; cwd }

let image_bytes t =
  match to_files t with [ (_, s) ] -> String.length s | _ -> assert false

let equal a b =
  List.equal (fun (x, p) (y, q) -> x = y && Bytes.equal p q) a.pages b.pages
  && Array.for_all2 Context.equal a.contexts b.contexts
  && a.fds = b.fds && a.brk = b.brk && a.cwd = b.cwd
