module SSet = Set.Make (String)
module SMap = Map.Make (String)

type target =
  | Local
  | Self of string
  | Proj of { p_dir : string; p_mod : string; p_path : string }
  | Extern of string list

type vref = { r_target : target; r_loc : Location.t; r_def : string }

type mutation = {
  mu_op : string;
  mu_name : string;
  mu_target : target;
  mu_captured : bool;
  mu_def : string;
  mu_loc : Location.t;
}

type escape = { esc_def : string; esc_what : string; esc_loc : Location.t }

type pool_site = {
  ps_fn : string;
  ps_def : string;
  ps_loc : Location.t;
  ps_refs : vref list;
  ps_mutations : mutation list;
  ps_escapes : escape list;
  ps_handles : bool;
}

type mutable_global = {
  mg_name : string;
  mg_creator : string;
  mg_sync : bool;
  mg_loc : Location.t;
}

type float_eq = { fe_op : string; fe_def : string; fe_loc : Location.t }

type t = {
  sum_source : Loader.source;
  sum_defs : string list;
  sum_def_lines : (string * int) list;
  sum_globals : mutable_global list;
  sum_refs : vref list;
  sum_mutations : mutation list;
  sum_handlers : string list;
  sum_escapes : escape list;
  sum_pool_sites : pool_site list;
  sum_float_eqs : float_eq list;
}

(* --- walker state ------------------------------------------------------ *)

type site_acc = {
  mutable a_refs : vref list;
  mutable a_muts : mutation list;
  mutable a_escs : escape list;
  mutable a_handles : bool;
}

type task = { t_acc : site_acc; t_locals : SSet.t }

type env = {
  vals : SSet.t;  (* locally bound values *)
  mods : SSet.t;  (* locally bound module names (letmodule, functor args) *)
  aliases : string list SMap.t;  (* module alias -> raw target path *)
  opens : (string * string * SSet.t) list;
      (* innermost-first opened project modules: dir, module ("" for a
         library wrapper), the values its .mli exports *)
  prefix : string;  (* nested-module prefix for top-level names, "" or "Sub." *)
  def : string;  (* enclosing top-level definition *)
  task : task option;  (* inside a Pool task argument *)
}

type ctx = {
  loader : Loader.t;
  src : Loader.source;
  mutable defs : SSet.t;  (* top-level value names seen so far, dotted *)
  mutable submodules : SSet.t;  (* nested module names, dotted *)
  mutable def_lines : (string * int) list;
  mutable globals : mutable_global list;
  mutable refs : vref list;
  mutable muts : mutation list;
  mutable handlers : SSet.t;  (* defs containing a try-handler *)
  mutable escapes : escape list;
  mutable sites : pool_site list;
  mutable feqs : float_eq list;
}

let bind_vals env names =
  let vals = List.fold_left (fun s n -> SSet.add n s) env.vals names in
  let task =
    Option.map
      (fun t ->
        { t with
          t_locals = List.fold_left (fun s n -> SSet.add n s) t.t_locals names
        })
      env.task
  in
  { env with vals; task }

let rec flatten (lid : Longident.t) =
  match lid with
  | Lident s -> Some [ s ]
  | Ldot (t, s) -> (
    match flatten t with Some l -> Some (l @ [ s ]) | None -> None)
  | Lapply _ -> None

let pat_vars (p : Parsetree.pattern) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it p;
  !acc

let is_upper s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* --- reference resolution ---------------------------------------------- *)

let rec resolve ctx env path =
  match path with
  | [] -> Extern []
  | [ x ] when not (is_upper x) ->
    if SSet.mem x env.vals then Local
    else if SSet.mem (env.prefix ^ x) ctx.defs || SSet.mem x ctx.defs then
      Self (if SSet.mem (env.prefix ^ x) ctx.defs then env.prefix ^ x else x)
    else (
      match List.find_opt (fun (_, _, vs) -> SSet.mem x vs) env.opens with
      | Some (d, m, _) -> Proj { p_dir = d; p_mod = m; p_path = x }
      | None -> Extern [ x ])
  | m :: rest -> resolve_mod ctx env ~depth:0 m rest

and resolve_mod ctx env ~depth m rest =
  if depth > 8 then Extern (m :: rest)
  else if SSet.mem m env.mods then Local
  else
    match SMap.find_opt m env.aliases with
    | Some target -> (
      match target @ rest with
      | m' :: rest' -> resolve_mod ctx env ~depth:(depth + 1) m' rest'
      | [] -> Extern [ m ])
    | None -> (
      match Loader.wrapper_dir m with
      | Some d -> (
        match rest with
        | [] -> Proj { p_dir = d; p_mod = ""; p_path = "" }
        | sub :: rest2 when is_upper sub ->
          Proj { p_dir = d; p_mod = sub; p_path = String.concat "." rest2 }
        | _ -> Extern (m :: rest))
      | None ->
        if
          SSet.mem (env.prefix ^ m) ctx.submodules || SSet.mem m ctx.submodules
        then Self (String.concat "." (m :: rest))
        else if
          List.mem m (Loader.modules_in_dir ctx.loader ctx.src.Loader.s_dir)
          && not (String.equal m ctx.src.Loader.s_module)
        then
          Proj
            { p_dir = ctx.src.Loader.s_dir;
              p_mod = m;
              p_path = String.concat "." rest }
        else
          let via_open =
            List.find_map
              (fun (d, om, _) ->
                if
                  String.equal om ""
                  && List.mem m (Loader.modules_in_dir ctx.loader d)
                then
                  Some (Proj { p_dir = d; p_mod = m; p_path = String.concat "." rest })
                else None)
              env.opens
          in
          (match via_open with
          | Some t -> t
          | None -> (
            let owners =
              List.filter
                (fun (_, ms) -> List.mem m ms)
                ctx.loader.Loader.dirs
            in
            match owners with
            | [ (d, _) ] ->
              Proj { p_dir = d; p_mod = m; p_path = String.concat "." rest }
            | _ -> Extern (m :: rest))))

let record_ref ctx env lid loc =
  match flatten lid with
  | None -> ()
  | Some path -> (
    match resolve ctx env path with
    | Local -> ()
    | t ->
      let r = { r_target = t; r_loc = loc; r_def = env.def } in
      ctx.refs <- r :: ctx.refs;
      (match env.task with
      | Some tk -> tk.t_acc.a_refs <- r :: tk.t_acc.a_refs
      | None -> ()))

(* --- tables ------------------------------------------------------------ *)

let raw_creators =
  [
    [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Queue"; "create" ];
    [ "Stack"; "create" ]; [ "Buffer"; "create" ]; [ "Bytes"; "create" ];
    [ "Bytes"; "make" ]; [ "Array"; "make" ]; [ "Array"; "init" ];
    [ "Array"; "create_float" ]; [ "Atomic"; "make" ];
  ]

let mutators =
  [
    ("Hashtbl",
     [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Queue", [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Buffer",
     [ "add_string"; "add_char"; "add_bytes"; "add_subbytes"; "add_substring";
       "clear"; "reset"; "truncate" ]);
    ("Bytes", [ "set"; "fill"; "blit"; "blit_string"; "unsafe_set" ]);
    ("Array", [ "set"; "fill"; "blit"; "unsafe_set" ]);
  ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

let pool_fns = [ "submit"; "post"; "map_list"; "map_array" ]

(* Pool/Sync are recognised by module name, not just by resolved directory,
   so fixtures and partial loads (where lib/util itself is not parsed) still
   see the escape points and the sanctioned wrappers. *)
let pool_call ctx env (f : Parsetree.expression) =
  match f.Parsetree.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match flatten txt with
    | Some path -> (
      match resolve ctx env path with
      | Proj { p_mod = "Pool"; p_path; _ } when List.mem p_path pool_fns ->
        Some p_path
      | Extern [ "Pool"; v ] when List.mem v pool_fns -> Some v
      | _ -> None)
    | None -> None)
  | _ -> None

let sync_target = function
  | Proj { p_mod = "Sync"; _ } -> true
  | Extern ("Sync" :: _) -> true
  | _ -> false

let creator_of ctx env (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_apply (f, _) -> (
    match f.Parsetree.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match flatten txt with
      | Some path -> (
        match resolve ctx env path with
        | Extern p when List.mem p raw_creators ->
          Some (String.concat "." p, false)
        | (Extern ("Sync" :: _) | Proj { p_mod = "Sync"; _ }) as t ->
          let name =
            match t with
            | Extern p -> String.concat "." p
            | Proj { p_path; _ } -> "Sync." ^ p_path
            | _ -> "Sync"
          in
          Some (name, true)
        | _ -> None)
      | None -> None)
    | _ -> None)
  | _ -> None

(* --- expression walk --------------------------------------------------- *)

let record_mutation ctx env op (arg : Parsetree.expression) loc =
  match arg.Parsetree.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match flatten txt with
    | Some path -> (
      let name = String.concat "." path in
      let t = resolve ctx env path in
      let mk captured =
        { mu_op = op; mu_name = name; mu_target = t;
          mu_captured = captured; mu_def = env.def; mu_loc = loc }
      in
      (* module-level state touched from anywhere (task or not): the
         effect pass turns these into Global_mutation atoms *)
      (match t with
      | (Self _ | Proj _) when not (sync_target t) ->
        ctx.muts <- mk false :: ctx.muts
      | _ -> ());
      match env.task with
      | None -> ()
      | Some tk -> (
        let add captured = tk.t_acc.a_muts <- mk captured :: tk.t_acc.a_muts in
        match t with
        | Local ->
          (* bound in the file: racy only if captured from outside the
             task closure rather than created inside it *)
          let base = match path with x :: _ -> x | [] -> "" in
          if not (SSet.mem base tk.t_locals) then add true
        | Self _ | Proj _ -> if not (sync_target t) then add false
        | Extern _ -> ()))
    | None -> ())
  | _ -> ()

let rec walk_expr ctx env (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> record_ref ctx env txt loc
  | Pexp_let (rf, vbs, body) ->
    let names = List.concat_map (fun vb -> pat_vars vb.Parsetree.pvb_pat) vbs in
    let env_rhs = if rf = Asttypes.Recursive then bind_vals env names else env in
    List.iter (fun vb -> walk_expr ctx env_rhs vb.Parsetree.pvb_expr) vbs;
    walk_expr ctx (bind_vals env names) body
  | Pexp_fun (_, dflt, pat, body) ->
    Option.iter (walk_expr ctx env) dflt;
    walk_expr ctx (bind_vals env (pat_vars pat)) body
  | Pexp_function cases -> walk_cases ctx env cases
  | Pexp_match (e0, cases) ->
    walk_expr ctx env e0;
    walk_cases ctx env cases
  | Pexp_try (e0, cases) ->
    (* a def with a handler absorbs the Raises atoms of its callees *)
    ctx.handlers <- SSet.add env.def ctx.handlers;
    (match env.task with
    | Some tk -> tk.t_acc.a_handles <- true
    | None -> ());
    walk_expr ctx env e0;
    walk_cases ctx env cases
  | Pexp_apply (f, args) -> walk_apply ctx env e f args
  | Pexp_for (pat, e1, e2, _, body) ->
    walk_expr ctx env e1;
    walk_expr ctx env e2;
    walk_expr ctx (bind_vals env (pat_vars pat)) body
  | Pexp_letmodule (name, me, body) ->
    let env' =
      match (name.txt, me.Parsetree.pmod_desc) with
      | Some n, Pmod_ident { txt; _ } -> (
        match record_module_ref ~chased:true ctx env txt me.Parsetree.pmod_loc with
        | Some (p, _) -> { env with aliases = SMap.add n p env.aliases }
        | None -> { env with mods = SSet.add n env.mods })
      | Some n, _ ->
        walk_module_expr ctx env me;
        { env with mods = SSet.add n env.mods }
      | None, _ ->
        walk_module_expr ctx env me;
        env
    in
    walk_expr ctx env' body
  | Pexp_open (od, body) ->
    let env' = push_open ctx env od in
    walk_expr ctx env' body
  | Pexp_letop { let_; ands; body } ->
    walk_expr ctx env let_.pbop_exp;
    List.iter (fun b -> walk_expr ctx env b.Parsetree.pbop_exp) ands;
    let names =
      pat_vars let_.pbop_pat
      @ List.concat_map (fun b -> pat_vars b.Parsetree.pbop_pat) ands
    in
    walk_expr ctx (bind_vals env names) body
  | Pexp_setfield (e1, _, e2) ->
    record_mutation ctx env "<-" e1 e.pexp_loc;
    walk_expr ctx env e1;
    walk_expr ctx env e2
  | Pexp_newtype (_, body) -> walk_expr ctx env body
  | _ -> fallback ctx env e

and fallback ctx env e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ child -> walk_expr ctx env child);
    }
  in
  Ast_iterator.default_iterator.expr it e

and walk_cases ctx env cases =
  List.iter
    (fun (c : Parsetree.case) ->
      let env' = bind_vals env (pat_vars c.pc_lhs) in
      Option.iter (walk_expr ctx env') c.pc_guard;
      walk_expr ctx env' c.pc_rhs)
    cases

and walk_apply ctx env e f args =
  (* higher-order escape: applying a function fetched out of a record field
     or a ref cell — the effect fixpoint cannot see through the container,
     so these sites widen the caller's summary to ⊤ *)
  (let record_escape what =
     let esc =
       { esc_def = env.def; esc_what = what; esc_loc = e.Parsetree.pexp_loc }
     in
     ctx.escapes <- esc :: ctx.escapes;
     match env.task with
     | Some tk -> tk.t_acc.a_escs <- esc :: tk.t_acc.a_escs
     | None -> ()
   in
   match f.Parsetree.pexp_desc with
   | Pexp_field (_, { txt = flid; _ }) ->
     record_escape ("." ^ Longident.last flid)
   | Pexp_apply (g, [ (Asttypes.Nolabel, cell) ]) -> (
     match g.Parsetree.pexp_desc with
     | Pexp_ident { txt = Lident "!"; _ }
       when (not (SSet.mem "!" env.vals)) && not (SSet.mem "!" ctx.defs) ->
       let nm =
         match cell.Parsetree.pexp_desc with
         | Pexp_ident { txt; _ } -> (
           match flatten txt with
           | Some p -> String.concat "." p
           | None -> "?")
         | _ -> "?"
       in
       record_escape ("!" ^ nm)
     | _ -> ())
   | _ -> ());
  (* mutators, the [:=]/[incr]/[decr] forms, and exact float equality *)
  (match f.Parsetree.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match flatten txt with
    | Some path -> (
      let unshadowed x =
        (not (SSet.mem x env.vals)) && not (SSet.mem x ctx.defs)
      in
      (match path with
      | [ (":=" | "incr" | "decr") as op ] when unshadowed op -> (
        match args with
        | (Asttypes.Nolabel, a1) :: _ ->
          record_mutation ctx env op a1 e.Parsetree.pexp_loc
        | _ -> ())
      | [ m; v ]
        when List.exists
               (fun (mm, vs) -> String.equal mm m && List.mem v vs)
               mutators -> (
        match resolve ctx env path with
        | Extern _ -> (
          match args with
          | (Asttypes.Nolabel, a1) :: _ ->
            record_mutation ctx env (m ^ "." ^ v) a1 e.Parsetree.pexp_loc
          | _ -> ())
        | _ -> ())
      | _ -> ());
      match path with
      | [ (("=" | "<>") as op) ] when unshadowed op ->
        let float_operand (a : Parsetree.expression) =
          match a.pexp_desc with
          | Pexp_constant (Pconst_float _) -> true
          | Pexp_ident { txt = Lident c; _ } ->
            List.mem c float_consts && not (SSet.mem c env.vals)
          | _ -> false
        in
        if List.exists (fun (_, a) -> float_operand a) args then
          ctx.feqs <-
            { fe_op = op; fe_def = env.def; fe_loc = e.Parsetree.pexp_loc }
            :: ctx.feqs
      | _ -> ())
    | None -> ())
  | _ -> ());
  match pool_call ctx env f with
  | Some fn when List.length args >= 2 ->
    walk_expr ctx env f;
    List.iteri
      (fun i (_, a) ->
        if i = 1 then begin
          let acc =
            { a_refs = []; a_muts = []; a_escs = []; a_handles = false }
          in
          let tenv =
            { env with task = Some { t_acc = acc; t_locals = SSet.empty } }
          in
          walk_expr ctx tenv a;
          ctx.sites <-
            {
              ps_fn = fn;
              ps_def = env.def;
              ps_loc = e.Parsetree.pexp_loc;
              ps_refs = List.rev acc.a_refs;
              ps_mutations = List.rev acc.a_muts;
              ps_escapes = List.rev acc.a_escs;
              ps_handles = acc.a_handles;
            }
            :: ctx.sites
        end
        else walk_expr ctx env a)
      args
  | _ ->
    walk_expr ctx env f;
    List.iter (fun (_, a) -> walk_expr ctx env a) args

(* A module path as a reference: the flattened path and its target.  An
   open or alias of a project module is [~chased]: what the scope uses
   through it resolves to the module's own values, so the module path is
   not itself recorded as a bare reference. *)
and record_module_ref ?(chased = false) ctx env lid loc =
  Option.map
    (fun path ->
      let t = resolve ctx env path in
      (match t with
      | Local -> ()
      | Proj _ when chased -> ()
      | t -> ctx.refs <- { r_target = t; r_loc = loc; r_def = env.def } :: ctx.refs);
      (path, t))
    (flatten lid)

and push_open ctx env (od : Parsetree.open_declaration) =
  match od.popen_expr.pmod_desc with
  | Pmod_ident { txt; loc } -> (
    match record_module_ref ~chased:true ctx env txt loc with
    | Some (_, Proj { p_dir; p_mod; p_path = "" }) ->
      let vs =
        match Loader.find_module ctx.loader ~dir:p_dir p_mod with
        | Some { Loader.s_intf = Some i; _ } -> List.map fst i.Loader.i_vals
        | _ -> []
      in
      { env with opens = (p_dir, p_mod, SSet.of_list vs) :: env.opens }
    | _ -> env)
  | _ ->
    walk_module_expr ctx env od.popen_expr;
    env

and walk_module_expr ctx env (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> ignore (record_module_ref ctx env txt me.pmod_loc)
  | Pmod_structure items ->
    ignore (walk_structure ctx { env with prefix = env.prefix } items)
  | Pmod_functor (param, body) ->
    let env' =
      match param with
      | Named ({ txt = Some n; _ }, _) -> { env with mods = SSet.add n env.mods }
      | _ -> env
    in
    walk_module_expr ctx env' body
  | Pmod_apply (a, b) ->
    walk_module_expr ctx env a;
    walk_module_expr ctx env b
  | Pmod_apply_unit m -> walk_module_expr ctx env m
  | Pmod_constraint (m, _) -> walk_module_expr ctx env m
  | Pmod_unpack e -> walk_expr ctx env e
  | Pmod_extension _ -> ()

(* --- structure walk ---------------------------------------------------- *)

and walk_item ctx env (item : Parsetree.structure_item) =
  match item.pstr_desc with
  | Pstr_value (rf, vbs) ->
    let names =
      List.concat_map
        (fun vb -> List.map (fun n -> env.prefix ^ n) (pat_vars vb.Parsetree.pvb_pat))
        vbs
    in
    if rf = Asttypes.Recursive then
      ctx.defs <- List.fold_left (fun s n -> SSet.add n s) ctx.defs names;
    List.iter
      (fun (vb : Parsetree.value_binding) ->
        let dname =
          match pat_vars vb.pvb_pat with
          | n :: _ -> env.prefix ^ n
          | [] -> env.prefix ^ "_"
        in
        ctx.def_lines <-
          (dname, vb.pvb_loc.Location.loc_start.Lexing.pos_lnum)
          :: ctx.def_lines;
        (match creator_of ctx env vb.pvb_expr with
        | Some (creator, sync) ->
          ctx.globals <-
            {
              mg_name = dname;
              mg_creator = creator;
              mg_sync = sync;
              mg_loc = vb.pvb_loc;
            }
            :: ctx.globals
        | None -> ());
        walk_expr ctx { env with def = dname } vb.pvb_expr)
      vbs;
    ctx.defs <- List.fold_left (fun s n -> SSet.add n s) ctx.defs names;
    env
  | Pstr_module mb -> walk_module_binding ctx env mb
  | Pstr_recmodule mbs -> List.fold_left (walk_module_binding ctx) env mbs
  | Pstr_open od -> push_open ctx { env with def = "" } od
  | Pstr_eval (e, _) ->
    walk_expr ctx { env with def = "" } e;
    env
  | Pstr_include incl ->
    walk_module_expr ctx env incl.pincl_mod;
    env
  | Pstr_primitive _ | Pstr_type _ | Pstr_typext _ | Pstr_exception _
  | Pstr_modtype _ | Pstr_class _ | Pstr_class_type _ | Pstr_attribute _
  | Pstr_extension _ ->
    env

and walk_module_binding ctx env (mb : Parsetree.module_binding) =
  let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
  ctx.submodules <- SSet.add (env.prefix ^ name) ctx.submodules;
  match mb.pmb_expr.pmod_desc with
  | Pmod_ident { txt; loc } -> (
    match record_module_ref ~chased:true ctx { env with def = "" } txt loc with
    | Some (p, _) -> { env with aliases = SMap.add name p env.aliases }
    | None -> env)
  | Pmod_structure items ->
    ignore
      (walk_structure ctx
         { env with prefix = env.prefix ^ name ^ "."; def = "" }
         items);
    env
  | _ ->
    walk_module_expr ctx { env with def = "" } mb.pmb_expr;
    env

and walk_structure ctx env items = List.fold_left (walk_item ctx) env items

(* --- entry point ------------------------------------------------------- *)

let empty_env =
  {
    vals = SSet.empty;
    mods = SSet.empty;
    aliases = SMap.empty;
    opens = [];
    prefix = "";
    def = "";
    task = None;
  }

let of_source loader (src : Loader.source) =
  let ctx =
    {
      loader;
      src;
      defs = SSet.empty;
      submodules = SSet.empty;
      def_lines = [];
      globals = [];
      refs = [];
      muts = [];
      handlers = SSet.empty;
      escapes = [];
      sites = [];
      feqs = [];
    }
  in
  (match src.s_ast with
  | Some items -> ignore (walk_structure ctx empty_env items)
  | None -> ());
  {
    sum_source = src;
    sum_defs = SSet.elements ctx.defs;
    sum_def_lines = List.rev ctx.def_lines;
    sum_globals = List.rev ctx.globals;
    sum_refs = List.rev ctx.refs;
    sum_mutations = List.rev ctx.muts;
    sum_handlers = SSet.elements ctx.handlers;
    sum_escapes = List.rev ctx.escapes;
    sum_pool_sites = List.rev ctx.sites;
    sum_float_eqs = List.rev ctx.feqs;
  }
