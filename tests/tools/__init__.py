"""Developer tools that run over the repository; pytest collects none of them."""
